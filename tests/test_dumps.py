"""``io.dumps`` writes exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True, ensure_ascii=False)`` plus a final newline."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agree.io
from agree import generate
from agree.cli import main
from agree.io import dumps, graph_doc, morphism_doc, rule_doc
from agree.laws import default_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def outcome(write, doc):
    """The text, or the type of the error raised for a value ``json`` rejects."""
    try:
        return write(doc)
    except TypeError as exc:
        return type(exc)


# -- drawn documents -----------------------------------------------------------

_AWKWARD = st.sampled_from(['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
                            "\u00e9", "\u00a0", "\u2028", "\ud800", "\udfff", "\ufeff", "\u6f22",
                            "\U0001f600"])
STRINGS = st.text(st.characters() | _AWKWARD, max_size=12)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | STRINGS


def _containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(STRINGS, children, max_size=5)
            | st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=4)
            | st.dictionaries(st.none(), children))


DOCUMENTS = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_drawn_documents(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(STRINGS | st.integers() | st.tuples(st.integers()), SCALARS,
                                max_size=4), max_size=3))
def test_drawn_mixed_keys(doc):
    """Keys ``json`` cannot sort or encode raise the same error."""
    assert outcome(dumps, doc) == outcome(reference, doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]}, ([(), ()],),
    {"": "", "é": "é"}, {1: "a", 2: {"b": []}}, {"x": {2.5: [None, True]}},
    {"b": 1, "a": {"d": [1.0, -0.0, 1e300, float("inf"), float("nan")], "c": False}},
])
def test_hand_written_documents(doc):
    assert dumps(doc) == reference(doc)


# -- documents the fixtures and the generator produce -----------------------------

@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_fixture_files(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert dumps(doc) == reference(doc)


def _fixture_commands():
    rules = sorted(FIXTURES.glob("*_rule.json"))
    graphs = sorted(FIXTURES.glob("*_graph.json"))
    for rule in rules:
        for graph in graphs:
            yield ["matches", "--rule", str(rule), "--graph", str(graph)]
            for index in ("0", "1"):
                yield ["apply", "--rule", str(rule), "--graph", str(graph), "--match-index", index,
                       "--trace", "trace.json", "--out", "h.json"]
    for graph in graphs:
        yield ["classifier", "--graph", str(graph)]
    yield ["complement", "--m", str(FIXTURES / "complement_arrow.json")]


def test_fixture_command_documents(monkeypatch, tmp_path, capsys):
    """Every document the CLI writes for the fixtures: match lists, result
    graphs, traces, enlargements and complements."""
    docs = []
    write = agree.io.dumps

    def recording(doc):
        docs.append(doc)
        return write(doc)

    monkeypatch.setattr(agree.io, "dumps", recording)
    monkeypatch.chdir(tmp_path)
    for argv in _fixture_commands():
        main(argv)
    capsys.readouterr()
    assert len(docs) > 25
    for doc in docs:
        assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("category,kinds", [
    ("gr", ("graph", "mono", "morphism", "span-rule", "psqpo-rule")),
    ("typed", ("graph", "mono", "morphism", "span-rule")),
    ("pol", ("graph", "mono", "morphism", "span-rule")),
])
def test_generated_documents(category, kinds):
    inst = default_instance(category)
    for kind in kinds:
        for seed in range(20):
            value = generate(kind, seed, (4, 5), inst)
            if kind.endswith("rule"):
                doc = rule_doc(value, inst)
            elif kind == "graph":
                doc = graph_doc(value)
            else:
                doc = morphism_doc(value, with_objects=True)
            assert dumps(doc) == reference(doc)
