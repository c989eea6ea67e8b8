"""Strict complements against the pullback of the characteristic arrow
against ``false`` in ``complement_reference.py``: the fixture reaches every
binding, the engine passes in all three settings, and two broken
complements and a broken restriction fail it, in this process and under
``python -O``."""

import pytest

import agree
import agree.cli
import agree.laws
import agree.rewrite
from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    characteristic,
    default_instance,
    identity,
    pullback,
)
from agree.laws import DEFAULT_TYPEGRAPH
from complement_reference import assert_same_complement, checked, checked_restriction
from test_reference_checks import run_optimized

TYPED = default_instance("typed")
POINT = Graph.build(["x"])
HOST = Graph.build(["a", "v", "b"], {"av": ("a", "v"), "vb": ("v", "b")})
TYPED_HOST = Graph.build(["a", "v", "b"], {"av": ("a", "v"), "vb": ("v", "b"), "ab": ("a", "b")},
                         {"a": "tn", "v": "tn", "b": "tn"}, {"av": "te", "vb": "te", "ab": "te"},
                         DEFAULT_TYPEGRAPH)
POLARIZED_HOST = Graph(frozenset("avb"), {"av": "a", "vb": "v"}, {"av": "v", "vb": "b"},
                       {"a": frozenset("+"), "v": frozenset("+-"), "b": frozenset("-")})

# One match of a node with an edge on each side, per setting.
MATCHES = {
    "gr": (Morphism(POINT, HOST, {"x": "v"}, {}), GR),
    "typed": (Morphism(Graph.build(["x"], {}, {"x": "tn"}, {}, DEFAULT_TYPEGRAPH), TYPED_HOST,
                       {"x": "v"}, {}), TYPED),
    "grpol": (Morphism(Graph(frozenset("x"), {}, {}, {"x": frozenset("+-")}), POLARIZED_HOST,
                       {"x": "v"}, {}), GRPOL),
}


def _subgraph(g, nodes, edges, instance):
    """The subgraph of ``g`` on ``nodes`` and ``edges``, with its inclusion."""
    sub = Graph(frozenset(nodes), {e: g.src[e] for e in edges}, {e: g.tgt[e] for e in edges},
                None if g.node_labels is None else {x: g.node_labels[x] for x in nodes},
                None if g.edge_labels is None else {e: g.edge_labels[e] for e in edges},
                instance.typegraph)
    return sub, Morphism(sub, g, {x: x for x in nodes}, {e: e for e in edges})


def complement_pulled_back_against_true(m, instance):
    """The pullback of the characteristic arrow against ``true`` instead of
    ``false``: the image of ``m``, not its complement."""
    ch = characteristic(m, instance)
    pb = pullback(ch.chi, ch.true_pt, instance)
    return _subgraph(m.target, pb.p1.nodemap.values(), pb.p1.edgemap.values(), instance)


def complement_keeping_a_touching_edge(m, instance):
    """The engine's complement plus the first edge that touches the image,
    kept with its ends so that it is still a subgraph."""
    g = m.target
    comp, _ = agree.rewrite._strict_complement(m, instance)
    e = min(e for e in g.src if e not in comp.src and e not in m.edgemap.values())
    return _subgraph(g, comp.nodes | {g.src[e], g.tgt[e]}, [*comp.src, e], instance)


MUTANTS = [complement_pulled_back_against_true, complement_keeping_a_touching_edge]

# A pullback square (l, n, m, g) with n = m the match of v.
SQUARE = (MATCHES["gr"][0], identity(POINT), MATCHES["gr"][0], identity(HOST), GR)


def restriction_losing_a_node(n, l, m, g, instance):
    """The engine's restriction without the greatest node of its source:
    the square still commutes, but it misses an item of D that lies over
    the complement of ``m``."""
    out = agree.rewrite.complement_of_square(n, l, m, g, instance)
    comp = out.source
    x = max(comp.nodes)
    sub, _ = _subgraph(comp, comp.nodes - {x}, [e for e in comp.src if x not in comp.ends(e)], instance)
    return Morphism(sub, out.target, {y: out.nodemap[y] for y in sub.nodes},
                    {e: out.edgemap[e] for e in sub.src})


def test_every_binding_is_checked():
    """The fixture wrapped each module's binding of the three functions."""
    bindings = [(module, name) for module in (agree, agree.rewrite, agree.laws, agree.cli)
                for name in ("strict_complement", "_strict_complement") if hasattr(module, name)]
    assert {(module.__name__, name) for module, name in bindings} >= {
        ("agree", "strict_complement"), ("agree.rewrite", "strict_complement"),
        ("agree.rewrite", "_strict_complement"), ("agree.laws", "strict_complement"),
        ("agree.cli", "_strict_complement")}
    for module, name in bindings:
        assert getattr(module, name).__name__ == "checked_compute", (module.__name__, name)
    for module in (agree, agree.rewrite, agree.laws):
        assert module.complement_of_square.__name__ == "checked_restrict", module.__name__


def test_engine_restriction_closes_a_pullback():
    out = agree.rewrite.complement_of_square(*SQUARE)
    assert (out.nodemap, out.edgemap) == ({"a": "a", "b": "b"}, {})


@pytest.mark.parametrize("kind", sorted(MATCHES))
def test_engine_matches_the_reference(kind):
    """The control for the mutants below: the engine on the same matches."""
    m, instance = MATCHES[kind]
    assert_same_complement(agree.rewrite.strict_complement(m, instance), m, instance)


@pytest.mark.parametrize("kind", sorted(MATCHES))
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda f: f.__name__)
def test_broken_complement_fails_the_reference(mutant, kind):
    m, instance = MATCHES[kind]
    with pytest.raises(AssertionError, match="the strict complement's nodes differ"):
        checked(mutant)(m, instance)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda f: f.__name__)
def test_broken_complement_fails_the_reference_under_optimized_python(mutant):
    result = run_optimized(
        f"from test_complement_reference import MATCHES, {mutant.__name__}; "
        "from complement_reference import checked; "
        f"checked({mutant.__name__})(*MATCHES['gr'])")
    assert result.returncode != 0
    assert "AssertionError: the strict complement's nodes differ" in result.stderr, result.stderr


def test_broken_restriction_fails_the_reference():
    with pytest.raises(AssertionError, match="restricted to the strict complements is not a pullback"):
        checked_restriction(restriction_losing_a_node)(*SQUARE)


def test_broken_restriction_fails_the_reference_under_optimized_python():
    result = run_optimized(
        "from test_complement_reference import SQUARE, restriction_losing_a_node; "
        "from complement_reference import checked_restriction; "
        "checked_restriction(restriction_losing_a_node)(*SQUARE)")
    assert result.returncode != 0
    assert "AssertionError: the square restricted to the strict complements" in result.stderr, result.stderr
