"""Object invariants, morphism validation, and the polarity functors."""

import types

import pytest
from hypothesis import given, settings, strategies as st

import agree
from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    PolarizedGraph,
    StructuralError,
    TypedGraph,
    compose,
    identity,
    pol_forget,
    pol_induce,
    pol_minimal,
    set_category,
    typed_over,
    validate_morphism,
)
from agree.core import belongs


@st.composite
def graphs(draw, max_nodes=4, max_edges=4):
    n = draw(st.integers(0, max_nodes))
    nodes = [f"n{i}" for i in range(n)]
    edges = {}
    if n:
        for i in range(draw(st.integers(0, max_edges))):
            edges[f"e{i}"] = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
    return Graph.build(nodes, edges)


@st.composite
def morphisms(draw):
    """A valid plain-graph morphism built over a drawn target."""
    target = draw(graphs())
    tnodes = sorted(target.nodes)
    tedges = sorted(target.src)
    n = draw(st.integers(0, 3)) if tnodes else 0
    nodes = [f"x{i}" for i in range(n)]
    nodemap = {x: draw(st.sampled_from(tnodes)) for x in nodes}
    edges = {}
    edgemap = {}
    if nodes and tedges:
        for i in range(draw(st.integers(0, 3))):
            d = draw(st.sampled_from(tedges))
            srcs = [x for x in nodes if nodemap[x] == target.src[d]]
            tgts = [x for x in nodes if nodemap[x] == target.tgt[d]]
            if srcs and tgts:
                edges[f"xe{i}"] = (draw(st.sampled_from(srcs)), draw(st.sampled_from(tgts)))
                edgemap[f"xe{i}"] = d
    return Morphism(Graph.build(nodes, edges), target, nodemap, edgemap)


_EDGE = Graph.build(["a", "b"], {"e": ("a", "b")})
_TYPES = Graph.build(["t", "u"], {"tu": ("t", "u")})
_PLUS, _MINUS = frozenset("+"), frozenset("-")

# Label columns and type graph that ``Graph`` refuses on the carrier ``_EDGE``,
# one per invariant of a setting, with the refusal's message.
REFUSED_LABELS = {
    "node types not total": ({"a": "t"}, {"e": "tu"}, _TYPES, "the node labels must be defined on exactly the nodes"),
    "edge types not total": ({"a": "t", "b": "u"}, {}, _TYPES, "the edge labels must be defined on exactly the edges"),
    "capabilities not total": ({"a": _PLUS}, None, None, "the node labels must be defined on exactly the nodes"),
    "edge labels without a type graph": ({"a": "t", "b": "u"}, {"e": "tu"}, None, "edge labels need a type graph"),
    "node type outside the type graph": ({"a": "t", "b": "v"}, {"e": "tu"}, _TYPES, "node 'b' has unknown type 'v'"),
    "edge type outside the type graph": ({"a": "t", "b": "u"}, {"e": "ut"}, _TYPES, "edge 'e' has unknown type 'ut'"),
    "edge type whose ends do not fit": ({"a": "u", "b": "t"}, {"e": "tu"}, _TYPES,
                                        "edge 'e' type 'tu' does not match its endpoint types"),
    "a label that is not a capability set": ({"a": frozenset("x"), "b": _MINUS}, None, None,
                                             "node 'a' has label frozenset({'x'}), not a set of capabilities"),
    "edge leaving a node without +": ({"a": _MINUS, "b": _MINUS}, None, None,
                                      "edge 'e' leaves node 'a' without + polarity"),
    "edge entering a node without -": ({"a": _PLUS, "b": _PLUS}, None, None,
                                       "edge 'e' enters node 'b' without - polarity"),
}


def _over(typegraph):
    return Graph.build(["a"], {"e": ("a", "a")}, {"a": "t"}, {"e": "tt"}, typegraph)


def _loop_types(*nodes):
    return Graph.build(nodes, {"tt": ("t", "t")})


# Pairs of graphs and whether they are equal: polarized graphs by carrier and
# capability sets, typed graphs by carrier, types and type graph, and the
# empty graphs of the three settings pairwise unequal.
EQUALITY = {
    "same carrier and capabilities": (PolarizedGraph(_EDGE, {"a"}, {"b"}),
                                      PolarizedGraph(Graph.build(["a", "b"], {"e": ("a", "b")}), {"a"}, {"b"}),
                                      True),
    "other capabilities": (PolarizedGraph(_EDGE, {"a"}, {"b"}), PolarizedGraph(_EDGE, {"a", "b"}, {"b"}), False),
    "polarized and plain": (PolarizedGraph(_EDGE, {"a"}, {"b"}), _EDGE, False),
    "equal type graphs": (_over(_loop_types("t")), _over(_loop_types("t")), True),
    "other type graphs": (_over(_loop_types("t")), _over(_loop_types("t", "u")), False),
    "empty plain and polarized": (Graph.build(), PolarizedGraph(Graph.build(), (), ()), False),
    "empty plain and typed": (Graph.build(), Graph.build((), None, {}, {}, _TYPES), False),
    "empty polarized and typed": (PolarizedGraph(Graph.build(), (), ()), Graph.build((), None, {}, {}, _TYPES), False),
}


class TestGraphInvariants:
    @pytest.mark.parametrize("case", sorted(REFUSED_LABELS))
    def test_labels_refused(self, case):
        node_labels, edge_labels, typegraph, message = REFUSED_LABELS[case]
        with pytest.raises(StructuralError) as refused:
            Graph(_EDGE.nodes, _EDGE.src, _EDGE.tgt, node_labels, edge_labels, typegraph)
        assert str(refused.value) == message

    @pytest.mark.parametrize("case", sorted(EQUALITY))
    def test_equality(self, case):
        x, y, equal = EQUALITY[case]
        assert (x == y) is equal and (y == x) is equal
        # Each belongs to the instances of its own setting only.
        for obj in (x, y):
            instance = GR if obj.kind == "gr" else GRPOL if obj.kind == "grpol" else typed_over(obj.typegraph)
            others = [GR, GRPOL, typed_over(_TYPES), typed_over(_loop_types("t"))]
            assert belongs(obj, instance)
            assert [other for other in others if belongs(obj, other)] == [
                other for other in others if other == instance]

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(StructuralError):
            Graph.build(["a"], {"e": ("a", "b")})

    def test_duplicate_node_rejected(self):
        with pytest.raises(StructuralError):
            Graph.build(["a", "a"])

    def test_src_tgt_same_edge_set(self):
        with pytest.raises(StructuralError):
            Graph(frozenset(["a"]), {"e": "a"}, {})

    def test_polarized_edge_needs_capabilities(self):
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        with pytest.raises(StructuralError):
            PolarizedGraph(g, frozenset(), frozenset(["b"]))
        PolarizedGraph(g, frozenset(["a"]), frozenset(["b"]))

    def test_typed_needs_valid_typing(self):
        g = Graph.build(["a"])
        tg = Graph.build(["t"])
        with pytest.raises(StructuralError):
            TypedGraph(g, tg, Morphism(g, tg, {}, {}))


class TestValidateMorphism:
    def test_identity_is_iso(self):
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        rep = validate_morphism(identity(g), GR)
        assert rep.valid and rep.is_mono_in_M and rep.is_iso

    def test_collapse_is_not_mono(self):
        g2 = Graph.build(["a", "b"])
        g1 = Graph.build(["c"])
        f = Morphism(g2, g1, {"a": "c", "b": "c"}, {})
        rep = validate_morphism(f, GR)
        assert rep.valid and not rep.is_mono_in_M and not rep.is_iso

    def test_polarized_inclusion_can_fail_strictness(self):
        # one node, no polarity, included into the fully polarized point
        a0 = PolarizedGraph(Graph.build(["a"]), frozenset(), frozenset())
        a1 = PolarizedGraph(Graph.build(["a"]), frozenset(["a"]), frozenset(["a"]))
        f = Morphism(a0, a1, {"a": "a"}, {})
        rep = validate_morphism(f, GRPOL)
        assert rep.valid
        assert not rep.is_mono_in_M
        assert not rep.is_iso

    def test_dangling_entry_is_structural_not_invalid(self):
        g = Graph.build(["a"])
        f = Morphism(g, g, {"a": "a", "ghost": "a"}, {})
        with pytest.raises(StructuralError):
            validate_morphism(f, GR)

    def test_missing_entry_is_invalid_not_structural(self):
        g = Graph.build(["a", "b"])
        f = Morphism(g, g, {"a": "a"}, {})
        rep = validate_morphism(f, GR)
        assert not rep.valid
        assert any("total" in p for p in rep.problems)

    def test_non_homomorphic_map_reported(self):
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        f = Morphism(g, g, {"a": "b", "b": "a"}, {"e": "e"})
        rep = validate_morphism(f, GR)
        assert not rep.valid

    def test_typed_morphism_must_preserve_types(self):
        inst = typed_over(Graph.build(["t", "u"]))
        g = Graph.build(["a"])
        x = TypedGraph(g, inst.typegraph, Morphism(g, inst.typegraph, {"a": "t"}, {}))
        y = TypedGraph(g, inst.typegraph, Morphism(g, inst.typegraph, {"a": "u"}, {}))
        rep = validate_morphism(Morphism(x, y, {"a": "a"}, {}), inst)
        assert not rep.valid


class TestPolarityFunctors:
    def test_induce_single_node(self):
        g = Graph.build(["a"])
        p = pol_induce(g)
        assert p.node_labels == {"a": frozenset(["+", "-"])}

    def test_minimal_on_an_edge(self):
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        p = pol_minimal(g)
        assert p.node_labels == {"a": frozenset(["+"]), "b": frozenset(["-"])}

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_forget_after_induce_is_identity(self, g):
        assert pol_forget(pol_induce(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(morphisms())
    def test_induced_morphisms_are_strict(self, f):
        rep = validate_morphism(pol_induce(f), GRPOL)
        assert rep.valid
        assert (f.nodemap == {}) or rep.is_mono_in_M == validate_morphism(f, GR).is_mono_in_M

    @settings(max_examples=60, deadline=None)
    @given(morphisms())
    def test_minimal_polarity_is_a_morphism(self, f):
        assert validate_morphism(pol_minimal(f), GRPOL).valid

    def test_functors_keep_the_maps_and_not_the_facts(self):
        """On morphisms the functors share the read-only maps; a report kept
        on the image stays off the arrow it came from."""
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        f = Morphism(g, g, {"a": "a", "b": "b"}, {"e": "e"})
        for functor, arrow in ((pol_induce, f), (pol_minimal, f), (pol_forget, pol_induce(f))):
            image = functor(arrow)
            assert image.nodemap is arrow.nodemap and image.edgemap is arrow.edgemap
        polarized = pol_minimal(f)
        assert validate_morphism(polarized, GRPOL).is_iso
        assert "_report" in vars(polarized) and "_report" not in vars(f)
        assert validate_morphism(f, GR).is_iso


class TestComposition:
    @settings(max_examples=60, deadline=None)
    @given(morphisms(), st.integers(0, 2))
    def test_composition_closure(self, f, extra):
        # extend the target by a couple of items, then embed: g . f stays valid
        tg = f.target
        nodes = set(tg.nodes) | {f"pad{i}" for i in range(extra)}
        bigger = Graph(frozenset(nodes), dict(tg.src), dict(tg.tgt))
        g = Morphism(f.target, bigger, {x: x for x in tg.nodes}, {e: e for e in tg.src})
        assert validate_morphism(g, GR).valid
        assert validate_morphism(compose(g, f), GR).valid

    def test_composition_requires_matching_ends(self):
        a = Graph.build(["a"])
        b = Graph.build(["b"])
        with pytest.raises(Exception):
            compose(Morphism(a, a, {"a": "a"}, {}), Morphism(b, b, {"b": "b"}, {}))


def test_set_category_is_node_only():
    inst = set_category()
    assert len(inst.typegraph.nodes) == 1 and not inst.typegraph.src


SUBMODULES = ("catops", "classifier", "core", "errors", "io", "laws", "rewrite")


def test_star_import_binds_no_module():
    """``from agree import *`` binds every public name of the package but
    none of its submodules, so the importer's ``io`` stays the standard
    library's."""
    namespace = {}
    exec("from agree import *", namespace)
    assert [name for name, value in namespace.items()
            if not name.startswith("__") and isinstance(value, types.ModuleType)] == []
    public = [name for name in dir(agree) if not name.startswith("_")]
    assert set(SUBMODULES) <= set(public)
    # ``cli`` is public too once some test has imported ``agree.cli``.
    assert agree.__all__ == [name for name in public if name not in SUBMODULES and name != "cli"]
    assert sorted(name for name in namespace if not name.startswith("__")) == agree.__all__
