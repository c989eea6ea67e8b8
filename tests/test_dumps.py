"""``io.dumps`` writes exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True, ensure_ascii=False)`` plus a final newline, with each graph
object and morphism written as its document; it refuses with
``TypeError`` a graph or morphism whose document ``parse_graph`` or
``parse_morphism`` would not read back."""

import json
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agree.io
from agree import Graph, Morphism, PolarizedGraph, TypedGraph, generate, pol_minimal
from agree.cli import main
from agree.errors import DocumentError
from agree.io import dumps, graph_doc, morphism_doc, parse_graph, parse_morphism, parse_rule, rule_doc, trace_doc
from agree.laws import default_instance
from agree.rewrite import agree_step, psqpo_step
from helpers import with_graph_docs
from test_determinism import SCENARIOS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def outcome(write, doc):
    """The text, or the type of the error raised for a value ``json`` (or
    ``dumps``) rejects."""
    try:
        return write(doc)
    except (TypeError, KeyError) as exc:
        return type(exc)


def refusal(write):
    """The type and message of the error ``write()`` raises, or ``None``."""
    try:
        write()
    except Exception as exc:
        return type(exc), str(exc)
    return None


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


# -- graph objects: written from their columns ----------------------------------

IDS = _AWKWARD | STRINGS


@st.composite
def awkward_graphs(draw):
    """A graph over drawn ids, awkward characters among them, in a drawn
    setting: plain, polarized (at least the polarity its edges need) or
    typed over a drawn type graph with one edge type per pair of types."""
    nodes = draw(st.lists(IDS, unique=True, max_size=5))
    edge_ids = draw(st.lists(IDS, unique=True, max_size=6)) if nodes else []
    ends = {e: (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))) for e in edge_ids}
    graph = Graph.build(nodes, ends)
    setting = draw(st.sampled_from(["gr", "pol", "typed"]))
    if setting == "pol":
        some = st.lists(st.sampled_from(nodes), max_size=3) if nodes else st.just([])
        plus = set(graph.src.values()) | set(draw(some))
        minus = set(graph.tgt.values()) | set(draw(some))
        return PolarizedGraph(graph, frozenset(plus), frozenset(minus))
    if setting == "typed":
        types = draw(st.lists(IDS, unique=True, min_size=1, max_size=3))
        typegraph = Graph.build(types, {json.dumps([a, b]): (a, b) for a in types for b in types})
        node_types = {n: draw(st.sampled_from(types)) for n in nodes}
        edge_types = {e: json.dumps([node_types[s], node_types[t]]) for e, (s, t) in ends.items()}
        return TypedGraph(graph, typegraph, Morphism(graph, typegraph, node_types, edge_types))
    return graph


def _typed_by_ints():
    """A graph with string ids typed over a type graph with integer ids."""
    graph, typegraph = Graph.build(["a"], {"e": ("a", "a")}), Graph(frozenset({0}), {1: 0}, {1: 0})
    return TypedGraph(graph, typegraph, Morphism(graph, typegraph, {"a": 0}, {"e": 1}))


_EMPTY = Graph.build()
_POINT = Graph.build(["a"])
# Graphs the API builds with ids or labels that are not strings:
# ``parse_graph`` refuses their documents, and ``dumps`` refuses them.
NON_STRING_GRAPHS = {
    "int ids": Graph(frozenset({1, 2}), {3: 1}, {3: 2}),
    "mixed node ids": Graph(frozenset({1, "a"}), {}, {}),
    "int edge id": Graph(frozenset({"a"}), {1: "a"}, {1: "a"}),
    "tuple node id": Graph(frozenset({"a", ("b",)}), {"e": "a"}, {"e": "a"}),
    "polarized int ids": PolarizedGraph(Graph(frozenset({1, 2}), {"e": 1}, {"e": 2}),
                                        frozenset({1}), frozenset({2})),
    "int types": _typed_by_ints(),
}
EMPTY_GRAPHS = {
    "empty": _EMPTY,
    "empty polarized": PolarizedGraph(_EMPTY, frozenset(), frozenset()),
    "empty typed": TypedGraph(_EMPTY, Graph.build(["t"]), Morphism(_EMPTY, Graph.build(["t"]), {}, {})),
}


def _generated(category):
    return st.builds(generate, st.just("graph"), st.integers(0, 10**6), st.just((6, 8)),
                     st.just(default_instance(category)))


GRAPHS = (_generated("gr") | _generated("typed") | _generated("pol") | _generated("gr").map(pol_minimal)
          | awkward_graphs() | st.sampled_from([*EMPTY_GRAPHS.values(), *NON_STRING_GRAPHS.values()]))


def _strings(items):
    return all(isinstance(item, str) for item in items)


def readable(value, string_keys=True):
    """Whether every graph object and morphism in ``value`` has a document
    that ``parse_graph`` or ``parse_morphism`` reads back (string ids and
    types; maps that are mappings with string keys and images) and sits
    only in dicts with string keys, which ``dumps`` writes itself."""
    if isinstance(value, Graph):
        labels = (value.node_labels.values(), value.edge_labels.values()) if value.kind == "typed" else ()
        return string_keys and all(map(_strings, (value.nodes, value.src, *labels)))
    if isinstance(value, Morphism):
        maps = (value.nodemap, value.edgemap)
        return string_keys and all(isinstance(m, Mapping) and _strings(m) and _strings(m.values()) for m in maps)
    if isinstance(value, dict):
        return all(readable(item, string_keys and _strings(value)) for item in value.values())
    if isinstance(value, (list, tuple)):
        return all(readable(item, string_keys) for item in value)
    return True


def written(value):
    """The ``json`` text of ``value`` with each graph object and morphism
    in it replaced by its document, or the type of the error raised:
    ``TypeError`` if a graph or morphism in it is not :func:`readable`."""
    if not readable(value):
        return TypeError
    return outcome(lambda v: reference(with_graph_docs(v)), value)


@settings(max_examples=300, deadline=None)
@given(st.recursive(GRAPHS | SCALARS, _containers, max_leaves=8))
def test_drawn_graph_objects(value):
    """Graphs alone or nested in dicts and lists are written as their
    ``graph_doc`` is, and one that ``parse_graph`` would not read back
    raises ``TypeError``."""
    assert outcome(dumps, value) == written(value)


@pytest.mark.parametrize("name", [*EMPTY_GRAPHS, *NON_STRING_GRAPHS])
def test_hand_written_graph_objects(name):
    obj = {**EMPTY_GRAPHS, **NON_STRING_GRAPHS}[name]
    expected = TypeError if name in NON_STRING_GRAPHS else reference(graph_doc(obj))
    assert outcome(dumps, obj) == written(obj) == expected
    assert outcome(dumps, {"G": [obj]}) == written({"G": [obj]})


_ARROW = Morphism(None, None, {"a": "x"}, {"e": "y"})
# Values outside the document model, each with a graph or a morphism that
# ``parse_graph`` or ``parse_morphism`` would not read back.
OUT_OF_MODEL = {
    **NON_STRING_GRAPHS,
    "int arrow key": Morphism(None, None, {1: "x"}, {}),
    "int edge arrow key": Morphism(None, None, {}, {1: "x"}),
    "int arrow image": Morphism(None, None, {"a": 1}, {}),
    "None edge arrow image": Morphism(None, None, {}, {"e": None}),
    "list arrow image": Morphism(None, None, {"a": ["x"]}, {}),
    "list node map": Morphism(None, None, ["a"], {}),
    "empty list edge map": Morphism(None, None, {}, []),
    "bad image after a shared layout": [_ARROW, Morphism(None, None, {"a": "x"}, {"e": 0})],
    "bad key after a good arrow": [_ARROW, Morphism(None, None, {"a": "x"}, {0: "y"})],
    "graph in an int-keyed dict": {1: _POINT},
    "arrow in an int-keyed dict": {0: [_ARROW]},
    "graph below an int-keyed dict": {1: [{"g": _POINT}]},
}


def test_out_of_model_values_are_refused():
    """Each value raises ``TypeError``, alone and nested in a list and in a dict."""
    refused = {name: [refusal(lambda: dumps(v)) for v in (value, [value], {"k": value})]
               for name, value in OUT_OF_MODEL.items()}
    assert {name: [r and r[0] for r in rs] for name, rs in refused.items()} == {
        name: [TypeError] * 3 for name in OUT_OF_MODEL}
    # ``json``'s own writer says it cannot write a graph or a morphism in a
    # dict with a key that is not a string.
    assert refused["graph in an int-keyed dict"][0] == (TypeError, "Object of type Graph is not JSON serializable")
    # The reader refuses the documents of the graphs that have one.
    for name in ("int ids", "int edge id", "polarized int ids", "int types"):
        obj = NON_STRING_GRAPHS[name]
        with pytest.raises(DocumentError):
            parse_graph(graph_doc(obj), obj.typegraph)


# -- morphisms: written from their maps -------------------------------------------

# Keys from a small alphabet, so that drawn key sets often share keys or
# differ in one; awkward strings and ``str`` subclasses among keys and values.
ARROW_KEYS = st.sampled_from(["a", "b", "c"]) | IDS | IDS.map(Sub)
ARROW_VALUES = IDS | IDS.map(Sub)


@st.composite
def arrow_maps(draw):
    """A node key set and an edge key set, each possibly empty."""
    return tuple(draw(st.lists(ARROW_KEYS, unique=True, max_size=4)) for _ in range(2))


def _arrow(draw, key_sets, values=ARROW_VALUES):
    """An arrow over one of ``key_sets``, its keys inserted in a drawn order."""
    nodes, edges = draw(st.sampled_from(key_sets))
    nodes, edges = draw(st.permutations(nodes)), draw(st.permutations(edges))
    return Morphism(_EMPTY, _EMPTY, {k: draw(values) for k in nodes}, {k: draw(values) for k in edges})


@st.composite
def arrow_lists(draw):
    """A list of arrows over a few key sets: neighbours share their key
    sets or differ in them, and some maps are empty."""
    key_sets = draw(st.lists(arrow_maps(), min_size=1, max_size=3))
    arrows = [_arrow(draw, key_sets) for _ in range(draw(st.integers(1, 6)))]
    return tuple(arrows) if draw(st.booleans()) else arrows


_NOT_STR = st.sampled_from([0, 1, -2, 1.5, None, True, ("a",), b"a"])


@st.composite
def near_arrow_lists(draw):
    """An arrow list with one arrow whose maps ``parse_morphism`` would not
    read back (a key or a value that is not a string), or with a map that
    is a mapping but not a ``dict``."""
    arrows = list(draw(arrow_lists()))
    i = draw(st.integers(0, len(arrows) - 1))
    f = arrows[i]
    nodes, edges = dict(f.nodemap), dict(f.edgemap)
    target = draw(st.sampled_from([nodes, edges]))
    flaw = draw(st.sampled_from(["key", "value", "keys", "values", "mapping"]))
    if flaw == "key":
        target[draw(_NOT_STR.filter(lambda key: not isinstance(key, bytes)))] = draw(ARROW_VALUES)
    elif flaw == "value" and target:
        target[draw(st.sampled_from(sorted(target)))] = draw(_NOT_STR | st.lists(STRINGS, max_size=1))
    elif flaw == "keys":
        target = {k: v for k, v in zip(range(len(target)), target.values())}
        nodes, edges = (target, edges) if draw(st.booleans()) else (nodes, target)
    elif flaw == "values":
        target.update(dict.fromkeys(target, draw(_NOT_STR)))
    else:
        nodes = MappingProxyType(nodes)
    arrows[i] = Morphism(_EMPTY, _EMPTY, nodes, edges)
    return arrows


@settings(max_examples=300, deadline=None)
@given(arrow_lists())
def test_drawn_arrow_lists(arrows):
    """A list of arrows is written as the list of their ``morphism_doc``,
    whether neighbours share key sets or not, and so is each arrow alone."""
    assert dumps(arrows) == written(arrows)
    for f in arrows:
        assert dumps(f) == reference(morphism_doc(f))


@settings(max_examples=300, deadline=None)
@given(near_arrow_lists())
def test_drawn_near_arrow_lists(arrows):
    """An arrow with a key or an image that is not a string raises
    ``TypeError``; one with a mapping that is not a ``dict`` is written as
    its ``morphism_doc``."""
    assert outcome(dumps, arrows) == written(arrows)


@st.composite
def arrows(draw):
    return _arrow(draw, draw(st.lists(arrow_maps(), min_size=1, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(st.recursive(arrows() | GRAPHS | SCALARS, _containers, max_leaves=10))
def test_drawn_arrows_next_to_graphs(value):
    """Arrows nested in dicts, tuples and lists, next to graphs, are each
    written as their ``morphism_doc``."""
    assert outcome(dumps, value) == written(value)


@pytest.mark.parametrize("value", [
    Morphism(_EMPTY, _EMPTY, {}, {}),
    Morphism(_POINT, _POINT, {"a": "a"}, {}),
    Morphism(_EMPTY, _EMPTY, {}, {"e": "f"}),
    [Morphism(_EMPTY, _EMPTY, {}, {}), Morphism(_POINT, _POINT, {"a": "a"}, {}), Morphism(_EMPTY, _EMPTY, {}, {})],
    [Morphism(None, None, {"a": "x"}, {"e": "y"}), Morphism(None, None, {"a": "x"}, {"f": "y"})],
    [Morphism(None, None, {"a": "x"}, {"e": "y"}), Morphism(None, None, {"b": "x"}, {"e": "y"})],
    [Morphism(None, None, {"a": "x", "b": "y"}, {}), Morphism(None, None, {"b": "y", "a": "x"}, {})],
    [Morphism(None, None, {"a": "x"}, {}), Morphism(None, None, {}, {"a": "x"})],
    {"f": (Morphism(None, None, {"": "\u2028", "\"": Sub("\n")}, {}),), "g": [[Morphism(None, None, {}, {})]]},
    [Morphism(None, None, {"a": 1}, {}), Morphism(None, None, {"a": "x"}, {})],
    [Morphism(None, None, {"a": "x"}, {}), Morphism(None, None, {"a": None}, {})],
    [Morphism(None, None, {1: "x"}, {}), Morphism(None, None, {1: "x", "a": "y"}, {})],
    Morphism(None, None, MappingProxyType({"a": "x"}), {}),
    Morphism(None, None, [], {}),
    *[value for f in (Morphism(None, None, ["a"], {}), Morphism(None, None, {"a": "x"}, ["e"]))
      for value in (f, [f], [Morphism(None, None, {"a": "x"}, {"e": "y"}), f], {"x": f})],
])
def test_hand_written_arrows(value):
    assert outcome(dumps, value) == written(value)


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
    yield ["fpbc", "--l", str(FIXTURES / "clone_l.json"), "--m", str(FIXTURES / "complement_arrow.json")]


def _objects_in(value, kinds):
    """The objects of ``kinds`` in ``value``, inside dicts, lists and
    tuples too."""
    if isinstance(value, kinds):
        yield value
    elif isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _objects_in(item, kinds)


def test_fixture_command_documents(monkeypatch, tmp_path, capsys):
    """Every document the CLI writes for the fixtures: match lists, result
    graphs, traces, enlargements, complements and a final pullback
    complement.  The CLI passes its graphs and arrows to ``dumps`` as
    objects; each is recorded on its own and must be written as its
    ``graph_doc`` or its ``morphism_doc``."""
    docs, graphs, arrows = [], [], []
    write = agree.io.dumps

    def recording(doc):
        graphs.extend(_objects_in(doc, Graph))
        arrows.extend(_objects_in(doc, Morphism))
        if not isinstance(doc, Graph):
            docs.append(doc)
        return write(doc)

    monkeypatch.setattr(agree.io, "dumps", recording)
    monkeypatch.chdir(tmp_path)
    for argv in _fixture_commands():
        main(argv)
    capsys.readouterr()
    assert graphs and arrows
    assert len(docs) + len(graphs) > 25
    for doc in docs:
        assert dumps(doc) == reference(with_graph_docs(doc))
    for obj in graphs:
        assert dumps(obj) == reference(graph_doc(obj))
    for f in arrows:
        assert dumps(f) == reference(morphism_doc(f))


def _load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("rule_name,graph_name,match_name", SCENARIOS)
def test_trace_documents_hold_the_trace_objects(rule_name, graph_name, match_name):
    """A trace document holds the step's own graph objects and arrows and
    is written as the document with each object replaced by its
    ``graph_doc`` and each arrow by its maps."""
    rule, instance = parse_rule(_load(rule_name))
    host = parse_graph(_load(graph_name), instance.typegraph)
    m = parse_morphism(_load(match_name), source=rule.lhs, target=host)
    trace = psqpo_step(rule, m) if rule.mode == "PSQPO" else agree_step(rule, m, instance)
    doc = trace_doc(trace)
    own = {"L": rule.lhs, "K": rule.interface, "R": rule.rhs, "TK": rule.t.target,
           "G": host, "D": trace.context, "H": trace.result, "TL": trace.m_bar.target}
    assert list(doc["objects"]) == list(own)
    assert all(doc["objects"][name] is obj for name, obj in own.items())
    arrows = {"l": rule.l, "r": rule.r, "t": rule.t, "n": trace.n, "m": m, "m_bar": trace.m_bar,
              "l_prime": trace.l_prime, "g": trace.g, "n_prime": trace.n_prime, "h": trace.h, "p": trace.p}
    assert list(doc["arrows"]) == list(arrows)
    assert all(doc["arrows"][name] is f for name, f in arrows.items())
    assert dumps(doc) == reference(with_graph_docs(doc))


def test_trace_scenarios_cover_every_mode():
    rules = [parse_rule(_load(rule)) for rule, _, _ in SCENARIOS]
    assert {rule.mode for rule, _ in rules} == {"AGREE", "SQPO", "PSQPO"}
    assert any(instance.typegraph is not None for _, instance in rules)


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


# -- round trip: dumps writes only what the parsers read back ---------------------

def read_back(doc, like):
    """``doc``, a written graph or arrow, read in the setting of ``like``,
    the graph object or morphism it was written from."""
    if isinstance(like, Graph):
        return parse_graph(doc, like.typegraph, polarized=like.kind == "grpol")
    return parse_morphism(doc, source=like.source, target=like.target)


def _generated_values(category):
    """Every graph and arrow ``generate`` draws in a setting, over a few seeds."""
    inst = default_instance(category)
    kinds = ("graph", "mono", "morphism", "span-rule") + (("psqpo-rule",) if category == "gr" else ())
    for kind in kinds:
        for seed in range(10):
            value = generate(kind, seed, (4, 5), inst)
            if kind.endswith("rule"):
                yield from (value.lhs, value.interface, value.rhs, value.t.target, value.l, value.r, value.t)
            elif kind == "graph":
                yield value
            else:
                yield from (value.source, value.target, value)


@pytest.mark.parametrize("category", ["gr", "typed", "pol"])
def test_generated_values_round_trip(category):
    values = list(_generated_values(category))
    kinds = {value.kind for value in values if isinstance(value, Graph)}
    assert kinds == {"gr": {"gr"}, "typed": {"typed"}, "pol": {"grpol"}}[category]
    for value in values:
        assert read_back(json.loads(dumps(value)), value) == value


@pytest.mark.parametrize("rule_name,graph_name,match_name", SCENARIOS)
def test_trace_values_round_trip(rule_name, graph_name, match_name):
    """Each object and arrow of a fixture trace, written in its trace
    document, reads back equal."""
    rule, instance = parse_rule(_load(rule_name))
    host = parse_graph(_load(graph_name), instance.typegraph)
    m = parse_morphism(_load(match_name), source=rule.lhs, target=host)
    trace = psqpo_step(rule, m) if rule.mode == "PSQPO" else agree_step(rule, m, instance)
    values = trace_doc(trace)
    doc = json.loads(dumps(values))
    for group in ("objects", "arrows"):
        for name, value in values[group].items():
            assert read_back(doc[group][name], value) == value, name
