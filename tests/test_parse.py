"""``io.parse_graph`` reads a document column by column and reads it again
entry by entry only to word the errors of one it rejects.  On mutated
documents in all three settings it must give what the entry-by-entry
parser in ``parse_reference.py`` gives: an equal object, or the same
positioned errors."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agree.io
from agree import DocumentError, Graph, StructuralError, default_instance, generate
from agree.io import graph_doc
from parse_reference import assert_same_parse, parse_outcome, parse_graph as reference_parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class Sub(str):
    """A ``str`` subclass: accepted wherever a ``str`` is."""


def _load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def _typegraph(rule):
    return agree.io.parse_graph(_load(rule)["typegraph"])


def _bases():
    """``(document, type graph)`` pairs: the fixture graphs and drawn graphs
    of each setting."""
    bases = [(_load("chain_graph"), None)]
    for graph, rule in (("web_graph", "web_copy_rule"), ("network_graph", "anonymize_rule"),
                        ("three_elements_graph", "nonlocal_keep_one_rule")):
        bases.append((_load(graph), _typegraph(rule)))
    for kind in ("gr", "typed", "pol"):
        instance = default_instance(kind)
        for seed in range(4):
            bases.append((graph_doc(generate("graph", seed, (4, 5), instance)), instance.typegraph))
    return bases


BASES = _bases()
KEYS = ("id", "src", "tgt", "type", "polarity")
POLARITIES = [[], ["+"], ["-", "+"], ["+", "+"], [Sub("+"), "-"], ["+", "-", "x"], ["-", "+", None],
              ["+", ["-"]], "+", ("+",), None]


def _values(doc, typegraph, section, key):
    """Values a mutation may write under ``key`` in an entry of ``section``:
    ids of this document or names in its type graph, as ``str`` or a
    subclass, fresh names, polarities, and values of other JSON types."""
    if key == "polarity":
        return st.sampled_from(POLARITIES)
    if key == "type":
        names = [] if typegraph is None else sorted(typegraph.nodes if section == "nodes" else typegraph.src)
    else:
        sections = ("nodes",) if key in ("src", "tgt") else (section,)
        entries = [e for s in sections if isinstance(doc.get(s), list) for e in doc[s]]
        names = [e["id"] for e in entries if isinstance(e, dict) and isinstance(e.get("id"), str)]
    known = st.sampled_from(names or ["a"])
    return (known | known.map(Sub) | st.sampled_from(["zz", "", "*", "tn"])
            | st.sampled_from([0, 1.5, True, None, ["a"], {"id": "a"}]))


@st.composite
def mutated(draw):
    """A base document with up to three mutations, and the type graph it is
    parsed with: its own, or none, or a wrong one."""
    doc, typegraph = draw(st.sampled_from(BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["entry", "entry", "entry", "list", "document"]))
        if where == "document":
            key = draw(st.sampled_from(["nodes", "edges"]))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(st.sampled_from([None, "a", {}, ({"id": "a"},)]))
            continue
        lists = [key for key in ("nodes", "edges") if isinstance(doc.get(key), list)]
        if not lists:
            continue
        section = draw(st.sampled_from(lists))
        entries = doc[section]
        if where == "list" or not entries:
            op = draw(st.sampled_from(["append", "duplicate", "non-object"]))
            if op == "append":
                entries.append({key: draw(_values(doc, typegraph, section, key)) for key in ("id", "src", "tgt")})
            elif op == "duplicate" and entries:
                entries.append(copy.deepcopy(draw(st.sampled_from(entries))))
            else:
                entries.append(draw(st.sampled_from([None, "a", ["id"], 3])))
            continue
        i = draw(st.integers(0, len(entries) - 1))
        if not isinstance(entries[i], dict):
            continue
        key = draw(st.sampled_from(KEYS))
        if draw(st.integers(0, 3)) == 0:
            entries[i].pop(key, None)
        else:
            entries[i][key] = draw(_values(doc, typegraph, section, key))
    setting = draw(st.sampled_from(["own", "own", "own", "none", "other"]))
    if setting == "none":
        typegraph = None
    elif setting == "other":
        typegraph = default_instance("typed").typegraph if typegraph is None else None
    return doc, typegraph


@settings(max_examples=1000, deadline=None)
@given(mutated())
def test_mutated_documents_parse_as_the_reference_does(case):
    doc, typegraph = case
    assert_same_parse(parse_outcome(agree.io.parse_graph, doc, typegraph, path="/g"),
                      parse_outcome(reference_parse_graph, doc, typegraph, path="/g"))


_TYPED_PATH = {"nodes": [{"id": "a", "type": "tn"}, {"id": "b", "type": "tn"}, {"id": "c", "type": "tm"}],
               "edges": [{"id": "e", "src": "a", "tgt": "b", "type": "te"},
                         {"id": "f", "src": "b", "tgt": "c", "type": "tf"}]}
_POLARIZED_PATH = {"nodes": [{"id": "a", "polarity": ["+"]}, {"id": "b", "polarity": ["+", "-"]},
                             {"id": "c", "polarity": ["-"]}],
                   "edges": [{"id": "e", "src": "a", "tgt": "b"}, {"id": "f", "src": "b", "tgt": "c"}]}


def _edited(doc, section, index, **fields):
    doc = copy.deepcopy(doc)
    doc[section][index].update(fields)
    return doc


# Documents that break one check only, each where the others cannot see it.
SINGLE_FAULTS = {
    "typed, good": (_TYPED_PATH, True),
    "typed, target of the wrong type": (_edited(_TYPED_PATH, "edges", 0, type="tf"), True),
    "typed, source of the wrong type": (_edited(_TYPED_PATH, "edges", 1, type="tg"), True),
    "typed, unknown edge type": (_edited(_TYPED_PATH, "edges", 0, type="zz"), True),
    "typed, polarity on a node": (_edited(_TYPED_PATH, "nodes", 2, polarity=["+"]), True),
    "typed, polarity on an edge": (_edited(_TYPED_PATH, "edges", 0, polarity="x"), True),
    "typed, without a type graph": (_TYPED_PATH, False),
    "polarized, good": (_POLARIZED_PATH, False),
    "polarized, a stray sign": (_edited(_POLARIZED_PATH, "nodes", 1, polarity=["+", "-", "x"]), False),
    "polarized, a nested sign": (_edited(_POLARIZED_PATH, "nodes", 1, polarity=["+", "-", ["+"]]), False),
    "polarized, str subclass signs": (_edited(_POLARIZED_PATH, "nodes", 1, polarity=[Sub("-"), Sub("+")]), False),
    "polarized, a tuple": (_edited(_POLARIZED_PATH, "nodes", 1, polarity=("+", "-")), False),
    "polarized, no - at a target": (_edited(_POLARIZED_PATH, "nodes", 2, polarity=["+"]), False),
    "polarized, no + at a source": (_edited(_POLARIZED_PATH, "nodes", 0, polarity=[]), False),
    "polarized, type on an edge": (_edited(_POLARIZED_PATH, "edges", 1, type="te"), False),
    "plain, duplicate edge id": (_edited(_POLARIZED_PATH, "edges", 1, id="e"), False),
    "plain, dangling target": (_edited(_POLARIZED_PATH, "edges", 1, tgt="zz"), False),
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_single_faults_parse_as_the_reference_does(case):
    doc, typed = SINGLE_FAULTS[case]
    typegraph = default_instance("typed").typegraph if typed else None
    assert_same_parse(parse_outcome(agree.io.parse_graph, doc, typegraph),
                      parse_outcome(reference_parse_graph, doc, typegraph))


@pytest.mark.parametrize("index", range(len(BASES)))
def test_unmutated_documents_are_accepted(index):
    doc, typegraph = BASES[index]
    got = parse_outcome(agree.io.parse_graph, doc, typegraph)
    assert not isinstance(got, list)
    assert_same_parse(got, reference_parse_graph(doc, typegraph))


def test_str_subclass_ids_are_accepted():
    doc = {"nodes": [{"id": Sub("a")}, {"id": "b"}], "edges": [{"id": "e", "src": "a", "tgt": Sub("b")}]}
    assert agree.io.parse_graph(doc) == Graph.build(["a", "b"], {"e": ("a", "b")})


def test_row_pass_that_finds_nothing_is_an_internal_error(monkeypatch):
    """The entry-by-entry pass runs only on a rejected document; if it finds
    no problem there, the two passes disagree, and that is not the
    document's fault."""
    monkeypatch.setattr(agree.io, "_read_columns", lambda doc, typegraph, polarized: None)
    with pytest.raises(StructuralError, match="column pass"):
        agree.io.parse_graph({"nodes": [], "edges": []})
    with pytest.raises(DocumentError):
        agree.io.parse_graph({"nodes": [{"id": 1}], "edges": []})


_PLAIN_EDGE = {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [{"id": "e", "src": "a", "tgt": "b"}]}

# One document per invariant the column pass leaves to a constructor:
# ``Graph`` checks endpoints, ``TypedGraph`` its typing, ``PolarizedGraph``
# the polarity its edges need.
CONSTRUCTOR_CHECKS = {
    "dangling src": (_edited(_PLAIN_EDGE, "edges", 0, src="zz"), False),
    "dangling tgt": (_edited(_PLAIN_EDGE, "edges", 0, tgt="zz"), False),
    "unknown node type": (_edited(_TYPED_PATH, "nodes", 0, type="zz"), True),
    "unknown edge type": (_edited(_TYPED_PATH, "edges", 1, type="zz"), True),
    "edge type against its end types": (_edited(_TYPED_PATH, "edges", 0, type="tg"), True),
    "missing +": (_edited(_POLARIZED_PATH, "nodes", 1, polarity=["-"]), False),
    "missing -": (_edited(_POLARIZED_PATH, "nodes", 1, polarity=["+"]), False),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_CHECKS))
def test_constructor_checks_give_positioned_errors(case):
    """A constructor refuses the document's graph, and ``parse_graph``
    words that refusal as the reference parser does."""
    doc, typed = CONSTRUCTOR_CHECKS[case]
    typegraph = default_instance("typed").typegraph if typed else None
    with pytest.raises(StructuralError):
        agree.io._read_columns(doc, typegraph)
    with pytest.raises(DocumentError) as got:
        agree.io.parse_graph(doc, typegraph, path="/g")
    with pytest.raises(DocumentError) as expected:
        reference_parse_graph(doc, typegraph, path="/g")
    assert got.value.errors == expected.value.errors
    assert all(path.startswith("/g/") for path, _ in got.value.errors)
