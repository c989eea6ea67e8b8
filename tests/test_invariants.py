"""Negative controls: break the construction that feeds an invariant check
and require ``InvariantError``, in this process and under ``python -O``.

Each scenario below builds a step or a construction with one part broken
on purpose and must raise; the checks are explicit raises, so stripping
``assert`` statements changes nothing.
"""

from unittest import mock

import pytest

import agree.catops
import agree.rewrite
from agree import (
    GR,
    Graph,
    InvariantError,
    Morphism,
    Pullback,
    agree_step,
    identity,
    phi,
    pullback,
    pullback_mediator,
    pushout_along_mono,
    sqpo_rule,
    strict_complement,
)
from test_reference_checks import run_optimized

POINT = Graph.build(["x"])
COPIES = Graph.build(["k0", "k1"])
HOST = Graph.build(["a", "v", "b"], {"av": ("a", "v"), "vb": ("v", "b")})
EDGE = Graph.build(["a", "b"], {"e": ("a", "b")})
CONTEXT = Graph.build(["d0", "d1"])
CLONE = sqpo_rule(Morphism(COPIES, POINT, {"k0": "x", "k1": "x"}, {}), identity(COPIES), GR)
MATCH_V = Morphism(POINT, HOST, {"x": "v"}, {})
INTO_CONTEXT = Morphism(COPIES, CONTEXT, {"k0": "d0", "k1": "d1"}, {})


def _swapped(nodemap, first, second):
    return {**nodemap, first: nodemap[second], second: nodemap[first]}


def step_with_a_swapped_mediator():
    """Cloning v: the mediator sends each copy to the other copy's pair, so
    it is still an admissible mono, but no longer factors the embedding."""
    mediator = pullback_mediator

    def swapped(pb, v, w):
        n = mediator(pb, v, w)
        return Morphism(n.source, n.target, _swapped(n.nodemap, "k0", "k1"), n.edgemap)

    with mock.patch.object(agree.rewrite, "pullback_mediator", swapped):
        agree_step(CLONE, MATCH_V, GR)


def mediator_into_an_apex_without_the_node_pair():
    pb = pullback(identity(POINT), identity(POINT), GR)
    pullback_mediator(Pullback(Graph.build(), pb.p1, pb.p2, pb.f, pb.g), identity(POINT), identity(POINT))


def mediator_into_an_apex_without_the_edge_pair():
    pb = pullback(identity(EDGE), identity(EDGE), GR)
    nodes_only = Graph.build(pb.apex.nodes)
    pullback_mediator(Pullback(nodes_only, pb.p1, pb.p2, pb.f, pb.g), identity(EDGE), identity(EDGE))


def pushout_with_swapped_context_leg():
    """The leg from D sends the two glued nodes to each other's images: a
    valid morphism, but the square no longer commutes."""
    arrow = agree.catops.Morphism

    def swapping(source, target, nodemap, edgemap):
        if source == CONTEXT:
            nodemap = _swapped(nodemap, "d0", "d1")
        return arrow(source, target, nodemap, edgemap)

    with mock.patch.object(agree.catops, "Morphism", swapping):
        pushout_along_mono(INTO_CONTEXT, identity(COPIES), GR)


def step_with_an_extra_context_node():
    """Cloning v: the pullback's apex gains one node over v beyond the pairs.
    The mediator still factors the embedding and lands in the apex, but the
    left square is no longer a pullback."""
    construct = pullback

    def padded(f, g, instance):
        pb = construct(f, g, instance)
        over = {**pb.p1.nodemap, "extra": "v"}
        star = {**pb.p2.nodemap, "extra": pb.p2.nodemap["(v,k0)"]}
        apex = Graph(pb.apex.nodes | {"extra"}, pb.apex.src, pb.apex.tgt)
        return Pullback(apex, Morphism(apex, pb.p1.target, over, pb.p1.edgemap),
                        Morphism(apex, pb.p2.target, star, pb.p2.edgemap), pb.f, pb.g)

    with mock.patch.object(agree.rewrite, "pullback", padded):
        agree_step(CLONE, MATCH_V, GR)


SCENARIOS = [
    step_with_a_swapped_mediator,
    mediator_into_an_apex_without_the_node_pair,
    mediator_into_an_apex_without_the_edge_pair,
    pushout_with_swapped_context_leg,
    step_with_an_extra_context_node,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_broken_construction_raises(scenario):
    with pytest.raises(InvariantError):
        scenario()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_broken_construction_raises_under_optimized_python(scenario):
    result = run_optimized(f"from test_invariants import {scenario.__name__}; {scenario.__name__}()")
    assert result.returncode != 0
    assert "agree.errors.InvariantError" in result.stderr, result.stderr


def test_padded_apex_trips_the_left_square_check():
    """``n' . n = t`` still holds, so only the left-square check can fire."""
    with pytest.raises(InvariantError, match="the step's left square is not a pullback"):
        step_with_an_extra_context_node()


def test_unbroken_constructions_pass():
    """The controls: the same calls with nothing patched."""
    agree_step(CLONE, MATCH_V, GR)
    for x in (POINT, EDGE):
        pullback_mediator(pullback(identity(x), identity(x), GR), identity(x), identity(x))
    phi(identity(HOST), identity(HOST), GR)
    pushout_along_mono(INTO_CONTEXT, identity(COPIES), GR)
    strict_complement(MATCH_V, GR)
