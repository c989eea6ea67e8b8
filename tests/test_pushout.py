"""The pushout that names every item once: the same result, legs and
insertion orders as the construction it replaced (``pushout_reference``),
and the same errors where it refuses a span."""

import random

import pytest

from agree import (
    GRPOL,
    Graph,
    Morphism,
    PreconditionError,
    StructuralError,
    agree_step,
    identity,
    pushout_along_mono,
    validate_morphism,
)
from agree.laws import _Gen, default_instance

import pushout_reference


def ordered(m):
    return list(m.nodemap.items()), list(m.edgemap.items())


def assert_same_as_reference(n, r, instance):
    po = pushout_along_mono(n, r, instance)
    ref = pushout_reference.pushout_along_mono(n, r, instance)
    assert po.result == ref.result
    got, expected = po.result, ref.result
    assert list(got.src.items()) == list(expected.src.items())
    assert list(got.tgt.items()) == list(expected.tgt.items())
    for labels, want in ((po.result.node_labels, ref.result.node_labels),
                         (po.result.edge_labels, ref.result.edge_labels)):
        if want is None:
            assert labels is None
        else:
            assert list(labels.items()) == list(want.items())
    assert (po.h, po.p) == (ref.h, ref.p)
    assert (ordered(po.h), ordered(po.p)) == (ordered(ref.h), ordered(ref.p))
    return po


def _glued(n):
    """How many of D's items the span glues."""
    return len(n.nodemap) + len(n.edgemap)


def _discrete(n, instance):
    """``n`` restricted to the nodes of its source: a mono from a discrete K."""
    k = Graph(n.source.nodes, {}, {}, n.source.node_labels,
              None if n.source.edge_labels is None else {}, instance.typegraph)
    return Morphism(k, n.target, n.nodemap, {})


@pytest.mark.parametrize("category", ["gr", "typed"])
def test_generated_spans_match_the_reference(category):
    """Spans ``D <-n- K -r-> R`` with ``n`` a mono onto a drawn subobject of
    D (glued edges included), also with K made discrete, and ``n`` the
    identity of D."""
    inst = default_instance(category)
    glued_edges = items = 0
    for seed in range(40):
        gen = _Gen(random.Random(f"pushout/{category}/{seed}"), (5, 7), inst)
        n = gen.mono(gen.object("d"), "k")
        r = gen._map_from(n.source, "r")
        po = assert_same_as_reference(n, r, inst)
        k = _discrete(n, inst)
        assert_same_as_reference(k, gen._map_from(k.source, "s"), inst)
        d = n.target
        assert_same_as_reference(identity(d), gen._map_from(d, "t"), inst)
        glued_edges += len(n.edgemap)
        items += len(po.result.nodes) + len(po.result.src)
    # The comparison is not vacuous: spans glue edges, and results are not empty.
    assert glued_edges > 20 and items > 200


@pytest.mark.parametrize("category", ["gr", "typed"])
def test_large_context(category):
    """A small interface glued into a large D, most of it kept context."""
    inst = default_instance(category)
    for seed in range(5):
        gen = _Gen(random.Random(f"pushout/large/{category}/{seed}"), (4, 5), inst)
        k = gen.object("k")
        n = gen.match_onto(k, extra_nodes=300, extra_edges=900)
        po = assert_same_as_reference(n, gen._map_from(k, "r"), inst)
        assert len(po.result.src) > 20 * (1 + _glued(n))


@pytest.mark.parametrize("category", ["gr", "typed"])
def test_step_pushouts_match_the_reference(category):
    """The pushout a rewrite step takes, along its context mono."""
    inst = default_instance(category)
    for seed in range(15):
        gen = _Gen(random.Random(f"pushout/step/{category}/{seed}"), (3, 4), inst)
        rule = gen.span_rule()
        trace = agree_step(rule, gen.match_onto(rule.lhs, extra_nodes=20, extra_edges=40), inst)
        po = assert_same_as_reference(trace.n, rule.r, inst)
        assert (po.result, po.h, po.p) == (trace.result, trace.h, trace.p)


def refusal(construct, *args):
    with pytest.raises(PreconditionError) as err:
        construct(*args)
    return str(err.value)


def test_refusals_match_the_reference():
    """Polarized spans, spans whose legs start apart, and spans whose first
    leg is not an admissible mono are refused with the same message."""
    gen = _Gen(random.Random("pushout/refused/pol"), (4, 5), GRPOL)
    n = gen.mono(gen.object("d"), "k")
    cases = [(n, gen._map_from(n.source, "r"), GRPOL)]

    inst = default_instance("gr")
    gen = _Gen(random.Random("pushout/refused/gr"), (4, 5), inst)
    n = gen.mono(gen.object("d"), "k")
    cases.append((n, gen._map_from(gen.object("j"), "r"), inst))
    d = Graph.build(["a"], {"e": ("a", "a")})
    k = Graph.build(["x", "y"], {"f": ("x", "y"), "g": ("y", "x")})
    folded = Morphism(k, d, {"x": "a", "y": "a"}, {"f": "e", "g": "e"})
    assert validate_morphism(folded, inst).valid
    assert not validate_morphism(folded, inst).is_mono_in_M
    cases.append((folded, identity(k), inst))

    messages = [refusal(pushout_along_mono, *case) for case in cases]
    assert messages == [refusal(pushout_reference.pushout_along_mono, *case) for case in cases]
    assert len(set(messages)) == 3


def test_second_legs_that_are_not_morphisms():
    """A second leg with a dangling image raises ``StructuralError``, as
    before; one that is not total or not homomorphic is refused up front,
    where the earlier construction failed inside or built a wrong result."""
    inst = default_instance("gr")
    d = Graph.build(["a", "b"], {"e": ("a", "b")})
    k = Graph.build(["x", "y"], {"f": ("x", "y")})
    n = Morphism(k, d, {"x": "a", "y": "b"}, {"f": "e"})
    rhs = Graph.build(["u", "v"], {"g": ("u", "v"), "h": ("v", "u")})
    dangling = Morphism(k, rhs, {"x": "u", "y": "ghost"}, {"f": "g"})
    for construct in (pushout_along_mono, pushout_reference.pushout_along_mono):
        with pytest.raises(StructuralError):
            construct(n, dangling, inst)
    for r in (Morphism(k, rhs, {"x": "u"}, {"f": "g"}), Morphism(k, rhs, {"x": "u", "y": "v"}, {"f": "h"})):
        assert refusal(pushout_along_mono, n, r, inst).startswith("pushout requires a valid second leg")


def test_pushout_shares_the_glued_names():
    """A glued item of D takes the very name its right-hand-side image has
    in the result, and the result's edge ends are its node names."""
    inst = default_instance("gr")
    gen = _Gen(random.Random("pushout/shared"), (5, 7), inst)
    n = gen.mono(gen.object("d"), "k")
    po = pushout_along_mono(n, gen._map_from(n.source, "r"), inst)
    r_names = set(map(id, po.p.nodemap.values())) | set(map(id, po.p.edgemap.values()))
    assert n.nodemap and all(id(po.h.nodemap[x]) in r_names for x in n.nodemap.values())
    assert all(id(po.h.edgemap[e]) in r_names for e in n.edgemap.values())
    result = po.result
    own = {x: x for x in result.nodes}
    assert all(own[x] is x for x in result.src.values())
    assert all(own[x] is x for x in result.tgt.values())
