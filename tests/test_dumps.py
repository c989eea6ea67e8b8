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
from agree.io import dumps, graph_doc, morphism_doc, parse_graph, parse_rule, rule_doc
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


# -- record lists: written column by column -------------------------------------

class Sub(str):
    """A ``str`` subclass: ``json`` writes it as a string."""


RECORD_KEYS = STRINGS | st.sampled_from(["{", "}", "{0}", "{}", "}{", "{{id}}", "id", "src", "tgt"])


STRING_VALUES = STRINGS | STRINGS.map(Sub)
LIST_VALUES = st.lists(STRING_VALUES, max_size=3) | st.sampled_from([[], ["-"], ["+"], ["+", "-"]])


@st.composite
def record_lists(draw):
    """Lists of dicts that share one non-empty set of string keys and hold
    only ``str`` values (some of them ``str`` subclasses) or lists of them,
    as a polarity is; a key's column holds strings, lists, or both."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True))
    columns = st.sampled_from([STRING_VALUES, STRING_VALUES, LIST_VALUES, STRING_VALUES | LIST_VALUES])
    values = {key: draw(columns) for key in keys}
    return draw(st.lists(st.fixed_dictionaries(values), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(record_lists())
def test_drawn_record_lists(records):
    assert dumps(records) == reference(records)
    assert dumps({"nodes": records, "edges": [records]}) == reference({"nodes": records, "edges": [records]})


_OTHERS = st.sampled_from([0, None, True, 1.5, ["a"], ("a",), {"k": "v"}, {}])


@st.composite
def near_record_lists(draw):
    """A record list with one flaw, in any record: an extra or a missing key,
    a value that is neither a string nor a list of strings, a list with an
    item that is not a string, an empty or a nested dict, or the list made
    a tuple."""
    records = draw(record_lists())
    i = draw(st.integers(0, len(records) - 1))
    flaw = draw(st.sampled_from(["extra key", "missing key", "value", "item", "empty", "nested", "tuple"]))
    if flaw == "extra key":
        records[i][draw(RECORD_KEYS.filter(lambda key: key not in records[0]))] = draw(STRINGS)
    elif flaw == "missing key":
        del records[i][draw(st.sampled_from(sorted(records[i])))]
    elif flaw == "value":
        records[i][draw(st.sampled_from(sorted(records[i])))] = draw(_OTHERS)
    elif flaw == "item":
        items = draw(st.lists(STRING_VALUES, max_size=2))
        items.insert(draw(st.integers(0, len(items))), draw(_OTHERS | STRINGS.map(lambda s: (s,))))
        records[i][draw(st.sampled_from(sorted(records[i])))] = items
    elif flaw == "empty":
        records[i] = {}
    elif flaw == "nested":
        records[i] = {"k": records[i]}
    else:
        return tuple(records)
    return records


@settings(max_examples=300, deadline=None)
@given(near_record_lists())
def test_drawn_near_record_lists(records):
    assert dumps(records) == reference(records)
    assert dumps([records]) == reference([records])


@pytest.mark.parametrize("doc", [
    [{"a": []}], [{"a": ["+", "-"]}, {"a": []}], [{"a": ["x"], "b": "y"}, {"a": ["z", "w"], "b": "v"}],
    [{"a": ["x"]}, {"a": "x"}], [{"a": ["x", 1]}], [{"a": [["x"]]}], [{"a": [("x",)]}], [{"a": ("x",)}],
    {"nodes": [{"id": "n0", "polarity": ["+"]}, {"id": "n1", "polarity": []}]},
    [{"a": "1"}, {"a": "2", "b": "3"}], [{"a": "1", "b": "3"}, {"a": "2"}], [{"a": "1"}, {"b": "1"}],
    [{"a": "1"}, {"a": 2}], [{"a": "1"}, {}], [{"a": "1"}, ["a"]], [{"a": "1"}, "a"], [{"a": {"b": "c"}}],
    ({"a": "1"}, {"a": "2"}), [{"{": "}", "}": "{", "{0}": "{1}"}], [{1: "a"}], [{"a": "1"}, {1: "a"}],
])
def test_hand_written_near_record_lists(doc):
    assert dumps(doc) == reference(doc)


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


# The rule whose type graph types each fixture host; plain hosts have none.
HOST_RULES = {"chain_graph": "clone_node_rule", "web_graph": "web_copy_rule",
              "network_graph": "anonymize_rule", "three_elements_graph": "nonlocal_keep_one_rule"}


def _fixture_objects():
    """Every fixture host parsed in its setting, and every fixture rule's graphs."""
    instances = {}
    for path in sorted(FIXTURES.glob("*_rule.json")):
        rule, instances[path.stem] = parse_rule(json.loads(path.read_text(encoding="utf-8")))
        yield from (rule.lhs, rule.interface, rule.rhs, rule.t.target)
    assert sorted(HOST_RULES) == sorted(path.stem for path in FIXTURES.glob("*_graph.json"))
    for host, rule in HOST_RULES.items():
        doc = json.loads((FIXTURES / f"{host}.json").read_text(encoding="utf-8"))
        yield parse_graph(doc, instances[rule].typegraph)


def test_fixture_graph_documents():
    objects = list(_fixture_objects())
    assert len(objects) > 25
    for obj in objects:
        doc = graph_doc(obj)
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
