"""Document round-trips, validation messages, and DOT export."""

import json

import pytest

from agree import DocumentError, GR, Graph, Morphism, PolarizedGraph
from agree.io import (
    dumps,
    export_dot,
    graph_doc,
    morphism_doc,
    parse_graph,
    parse_morphism,
    parse_rule,
    rule_doc,
    trace_doc,
)
from agree.laws import DEFAULT_TYPEGRAPH
from agree.rewrite import agree_step, enumerate_matches, sqpo_rule
from agree import identity, typed_over, TypedGraph


def web_typegraph_doc():
    return {
        "nodes": [{"id": "page"}],
        "edges": [
            {"id": "link", "src": "page", "tgt": "page"},
            {"id": "sub", "src": "page", "tgt": "page"},
        ],
    }


def page_copy_rule_doc():
    """A typed rule that clones a page together with its outgoing links only:
    the embedding carries link capabilities for the copy but no incoming
    links and no subpage edges."""
    node = lambda i: {"id": i, "type": "page"}
    tk_edges = []
    for s in ("p0", "p1", "ctx"):
        for t in ("p0", "ctx"):
            tk_edges.append({"id": f"l_{s}_{t}", "src": s, "tgt": t, "type": "link"})
    for s in ("p0", "ctx"):
        for t in ("p0", "ctx"):
            tk_edges.append({"id": f"s_{s}_{t}", "src": s, "tgt": t, "type": "sub"})
    return {
        "mode": "AGREE",
        "typegraph": web_typegraph_doc(),
        "L": {"nodes": [node("p")], "edges": []},
        "K": {"nodes": [node("p0"), node("p1")], "edges": []},
        "R": {"nodes": [node("p0"), node("p1")], "edges": []},
        "TK": {"nodes": [node("p0"), node("p1"), node("ctx")], "edges": tk_edges},
        "l": {"nodes": {"p0": "p", "p1": "p"}, "edges": {}},
        "r": {"nodes": {"p0": "p0", "p1": "p1"}, "edges": {}},
        "t": {"nodes": {"p0": "p0", "p1": "p1"}, "edges": {}},
    }


class TestGraphDocs:
    def test_empty_round_trip(self):
        doc = graph_doc(Graph.build([]))
        assert doc == {"nodes": [], "edges": []}
        assert parse_graph(doc) == Graph.build([])

    def test_round_trip_plain(self):
        g = Graph.build(["b", "a"], {"e2": ("a", "b"), "e1": ("b", "b")})
        assert parse_graph(graph_doc(g)) == g

    def test_round_trip_polarized_preserves_empty_polarity(self):
        p = PolarizedGraph(Graph.build(["a"]), frozenset(), frozenset())
        doc = graph_doc(p)
        assert doc["nodes"][0]["polarity"] == []
        assert parse_graph(doc) == p

    def test_round_trip_typed(self):
        inst = typed_over(DEFAULT_TYPEGRAPH)
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        t = TypedGraph(g, inst.typegraph, Morphism(
            g, inst.typegraph, {"a": "tn", "b": "tm"}, {"e": "tf"}))
        assert parse_graph(graph_doc(t), inst.typegraph) == t

    def test_serialization_is_canonical(self):
        g = Graph.build(["b", "a"], {"e": ("a", "b")})
        assert dumps(graph_doc(g)) == dumps(graph_doc(g))
        names = [n["id"] for n in graph_doc(g)["nodes"]]
        assert names == sorted(names)

    def test_dangling_endpoint_reported_with_position(self):
        doc = {"nodes": [{"id": "a"}], "edges": [{"id": "e", "src": "a", "tgt": "zz"}]}
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert any("dangling endpoint" in msg for _, msg in err.value.errors)
        assert any("/edges/0" in path for path, _ in err.value.errors)

    def test_duplicate_id_reported(self):
        doc = {"nodes": [{"id": "a"}, {"id": "a"}], "edges": []}
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert any("duplicate node id" in msg for _, msg in err.value.errors)

    def test_polarity_invariant_checked(self):
        doc = {
            "nodes": [{"id": "a", "polarity": []}, {"id": "b", "polarity": ["-"]}],
            "edges": [{"id": "e", "src": "a", "tgt": "b"}],
        }
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert any("+ polarity" in msg for _, msg in err.value.errors)

    def test_type_fields_need_a_typegraph(self):
        doc = {"nodes": [{"id": "a", "type": "page"}], "edges": []}
        with pytest.raises(DocumentError) as err:
            parse_graph(doc)
        assert any("type graph" in msg for _, msg in err.value.errors)

    def test_typed_edge_between_wrong_types_reported(self):
        doc = {"nodes": [{"id": "a", "type": "tm"}, {"id": "b", "type": "tm"}],
               "edges": [{"id": "e", "src": "a", "tgt": "b", "type": "te"}]}
        with pytest.raises(DocumentError) as err:
            parse_graph(doc, DEFAULT_TYPEGRAPH)
        assert err.value.errors == [("/edges", "edge 'e' type 'te' does not match its endpoint types")]

    def test_typed_documents_cannot_carry_polarity(self):
        doc = {"nodes": [{"id": "a", "type": "tn", "polarity": ["+"]}], "edges": []}
        with pytest.raises(DocumentError) as err:
            parse_graph(doc, DEFAULT_TYPEGRAPH)
        assert any("polarity" in msg for _, msg in err.value.errors)


class TestMorphismDocs:
    def test_standalone_round_trip(self):
        g = Graph.build(["a"])
        h = Graph.build(["b", "c"])
        f = Morphism(g, h, {"a": "c"}, {})
        doc = morphism_doc(f, with_objects=True)
        assert parse_morphism(doc) == f

    def test_unknown_ids_reported(self):
        g = Graph.build(["a"])
        doc = {"nodes": {"zz": "a"}, "edges": {}}
        with pytest.raises(DocumentError) as err:
            parse_morphism(doc, source=g, target=g)
        assert any("unknown source node" in msg for _, msg in err.value.errors)


class TestRuleDocs:
    def test_page_copy_rule_parses_to_valid_rule(self):
        rule, inst = parse_rule(page_copy_rule_doc())
        assert rule.mode == "AGREE"
        assert inst.kind == "typed"
        assert len(rule.t.target.src) == 10

    def test_rule_doc_round_trip(self):
        rule, inst = parse_rule(page_copy_rule_doc())
        doc = rule_doc(rule, inst)
        rule2, inst2 = parse_rule(doc)
        assert rule2.l == rule.l and rule2.r == rule.r and rule2.t == rule.t
        assert inst2 == inst

    def test_mode_dependent_fields(self):
        doc = page_copy_rule_doc()
        doc["mode"] = "SQPO"
        with pytest.raises(DocumentError) as err:
            parse_rule(doc)
        assert any("materialize" in msg for _, msg in err.value.errors)

    def test_psqpo_needs_polarity(self):
        doc = {
            "mode": "PSQPO",
            "L": {"nodes": [{"id": "x"}], "edges": []},
            "K": {"nodes": [{"id": "k"}], "edges": []},
            "R": {"nodes": [{"id": "k"}], "edges": []},
            "l": {"nodes": {"k": "x"}, "edges": {}},
            "r": {"nodes": {"k": "k"}, "edges": {}},
        }
        with pytest.raises(DocumentError):
            parse_rule(doc)
        doc["polarity"] = {"plus": ["k"], "minus": ["k"]}
        rule, inst = parse_rule(doc)
        assert rule.mode == "PSQPO" and inst.kind == "gr"


class TestDot:
    def test_empty_graph(self):
        assert export_dot(Graph.build([])) == "digraph G {\n}\n"

    def test_single_node_statement(self):
        out = export_dot(Graph.build(["a"]))
        assert out.count('"a"') == 1

    def test_star_items_dashed(self):
        from agree import t_object

        out = export_dot(t_object(Graph.build(["a"]), GR).total)
        assert 'style=dashed' in out

    def test_polarity_labels(self):
        p = PolarizedGraph(Graph.build(["a", "b"], {"e": ("a", "b")}),
                           frozenset(["a"]), frozenset(["a", "b"]))
        out = export_dot(p)
        assert 'label="a+-"' in out and 'label="b-"' in out

    def test_trace_contains_all_clusters(self):
        point = Graph.build(["x"])
        host = Graph.build(["a", "v"], {"e": ("a", "v")})
        rule = sqpo_rule(identity(point), identity(point), GR)
        m = enumerate_matches(point, host, GR)[0]
        out = export_dot(agree_step(rule, m, GR))
        for name in ("L", "K", "R", "TK", "G", "D", "H", "TL"):
            assert f"cluster_{name}" in out

    def test_deterministic(self):
        g = Graph.build(["b", "a"], {"e": ("a", "b")})
        assert export_dot(g) == export_dot(g)

    def test_integer_types_are_written_as_types(self):
        graph, typegraph = Graph.build(["a"], {"e": ("a", "a")}), Graph(frozenset({0}), {1: 0}, {1: 0})
        typed = TypedGraph(graph, typegraph, Morphism(graph, typegraph, {"a": 0}, {"e": 1}))
        assert export_dot(typed) == 'digraph G {\n  "a" [label="a:0"];\n  "a" -> "a" [label="e:1"];\n}\n'


class TestTraceDocs:
    def test_trace_doc_structure(self):
        point = Graph.build(["x"])
        host = Graph.build(["a", "v"], {"e": ("a", "v")})
        rule = sqpo_rule(identity(point), identity(point), GR)
        m = enumerate_matches(point, host, GR)[0]
        doc = trace_doc(agree_step(rule, m, GR))
        assert set(doc["objects"]) == {"L", "K", "R", "TK", "G", "D", "H", "TL"}
        assert set(doc["arrows"]) == {
            "l", "r", "t", "m", "l_prime", "m_bar", "g", "n_prime", "n", "h", "p"}
        json.loads(dumps(doc))


def test_dot_escapes_quotes_and_backslashes():
    out = export_dot(Graph.build(['a"b', "c\\d"], {"e": ('a"b', "c\\d")}))
    assert '  "a\\"b";\n' in out
    assert '  "a\\"b" -> "c\\\\d" [label="e"];\n' in out
