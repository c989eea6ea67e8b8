"""Checks that hold in every test."""

import json
import sys

import pytest

import agree.catops
import agree.io
import agree.rewrite
import complement_reference
from agree import DocumentError
from helpers import with_graph_docs
from parse_reference import assert_same_parse, parse_outcome, parse_graph as reference_parse_graph
from square_reference import assert_same_answer


@pytest.fixture(autouse=True)
def dumps_matches_json(monkeypatch):
    """Every document the engine writes through ``agree.io.dumps`` during a
    test (the CLI's outputs) must be ``json``'s canonical text, with each
    graph object in it written as its ``graph_doc``."""
    dumps = agree.io.dumps

    def checked(doc):
        text = dumps(doc)
        assert text == json.dumps(with_graph_docs(doc), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        return text

    monkeypatch.setattr(agree.io, "dumps", checked)


@pytest.fixture(autouse=True)
def parse_graph_matches_reference(monkeypatch, request):
    """Every ``parse_graph`` call during a test, from the engine or from the
    test module, must give what the entry-by-entry parser in
    ``parse_reference.py`` gives."""
    parse_graph = agree.io.parse_graph

    def checked(*args, **kwargs):
        got = parse_outcome(parse_graph, *args, **kwargs)
        assert_same_parse(got, parse_outcome(reference_parse_graph, *args, **kwargs))
        if isinstance(got, list):
            raise DocumentError(got)
        return got

    monkeypatch.setattr(agree.io, "parse_graph", checked)
    if getattr(request.module, "parse_graph", None) is parse_graph:
        monkeypatch.setattr(request.module, "parse_graph", checked)


@pytest.fixture(autouse=True)
def squares_match_reference(monkeypatch):
    """Every call during a test, through any module's binding, of
    ``is_pullback_square`` or of the fibre test ``_is_pullback_by_fibres``
    that it and every step's left-square check end in, must give the
    answer (or raise the error) of the canonical pullback construction in
    ``square_reference.py``.  The reference validates the four arrows, so
    a fibre test called on an arrow that is not valid fails here."""
    for name in ("is_pullback_square", "_is_pullback_by_fibres"):
        decide = getattr(agree.catops, name)

        def checked(*args, decide=decide):
            return assert_same_answer(decide, *args)

        _replace_bindings(monkeypatch, name, decide, checked)


@pytest.fixture(autouse=True)
def complements_match_reference(monkeypatch):
    """Every call during a test, through any module's binding, of
    ``strict_complement`` or of ``_strict_complement``, the direct passes
    that it, ``complement_of_square`` and ``agree complement`` end in,
    must give the pullback of the characteristic arrow against ``false``
    in ``complement_reference.py``; every ``complement_of_square``, and
    the ``_restrict_to_complements`` that it and ``is_local_step`` end in,
    must restrict its square to a pullback square."""
    wrappers = {"strict_complement": complement_reference.checked,
                "_strict_complement": complement_reference.checked,
                "complement_of_square": complement_reference.checked_restriction,
                "_restrict_to_complements": complement_reference.checked_restriction}
    for name, wrap in wrappers.items():
        compute = getattr(agree.rewrite, name)
        _replace_bindings(monkeypatch, name, compute, wrap(compute))


def _replace_bindings(monkeypatch, name, original, replacement):
    """Bind ``replacement`` in place of ``original`` wherever a module
    holds it under ``name``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(module, name, replacement)
