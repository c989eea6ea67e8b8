"""The hash-joined pullback: the same apex, projections and insertion
orders as the nested-loop construction it replaced."""

import random

import pytest

from agree import (
    Graph,
    Morphism,
    StructuralError,
    bar,
    carrier,
    identity,
    pullback,
    t_morphism,
)
from agree.laws import _Gen, default_instance


def oracle(f, g, instance):
    """``(apex, p1, p2)`` of the cospan ``f: X -> Z <- Y :g``, pairing every
    item of X with every item of Y in nested loops over sorted ids."""
    gx, gy = carrier(f.source), carrier(g.source)
    node_ids = {}
    for x in sorted(gx.nodes):
        for y in sorted(gy.nodes):
            if f.nodemap[x] == g.nodemap[y]:
                node_ids[(x, y)] = f"({x},{y})"
    edge_ids = {}
    for e in sorted(gx.src):
        for d in sorted(gy.src):
            if f.edgemap[e] == g.edgemap[d]:
                edge_ids[(e, d)] = f"({e},{d})"
    src = {}
    tgt = {}
    for (e, d), eid in edge_ids.items():
        src[eid] = node_ids[(gx.src[e], gy.src[d])]
        tgt[eid] = node_ids[(gx.tgt[e], gy.tgt[d])]

    def meets(left, right, pair_ids):
        if left is None:
            return None
        return {pid: instance.meet(left[a], right[b]) for (a, b), pid in pair_ids.items()}

    apex = instance.make(
        Graph(frozenset(node_ids.values()), src, tgt),
        meets(f.source.node_labels, g.source.node_labels, node_ids),
        meets(f.source.edge_labels, g.source.edge_labels, edge_ids),
    )
    p1 = Morphism(apex, f.source, {nid: x for (x, _), nid in node_ids.items()},
                  {eid: e for (e, _), eid in edge_ids.items()})
    p2 = Morphism(apex, g.source, {nid: y for (_, y), nid in node_ids.items()},
                  {eid: d for (_, d), eid in edge_ids.items()})
    return apex, p1, p2


def ordered(m):
    return list(m.nodemap.items()), list(m.edgemap.items())


def assert_same_as_oracle(f, g, instance):
    pb = pullback(f, g, instance)
    apex, p1, p2 = oracle(f, g, instance)
    assert pb.apex == apex
    assert list(carrier(pb.apex).src.items()) == list(carrier(apex).src.items())
    assert list(carrier(pb.apex).tgt.items()) == list(carrier(apex).tgt.items())
    for labels, expected in ((pb.apex.node_labels, apex.node_labels),
                             (pb.apex.edge_labels, apex.edge_labels)):
        if expected is None:
            assert labels is None
        else:
            assert list(labels.items()) == list(expected.items())
    assert (pb.p1, pb.p2) == (p1, p2)
    assert (ordered(pb.p1), ordered(pb.p2)) == (ordered(p1), ordered(p2))
    return pb


def _generated_cospans(gen):
    """Cospans into one drawn object: two arbitrary arrows, an arrow and an
    admissible mono, and an arrow against the identity."""
    z = gen.object("z")
    f = gen.arrow_into(z, "x")
    yield f, gen.arrow_into(z, "y")
    yield f, gen.mono(z, "y")
    yield gen.mono(z, "x"), f
    yield f, identity(z)


@pytest.mark.parametrize("category", ["gr", "typed"])
def test_generated_cospans_match_the_oracle(category):
    inst = default_instance(category)
    items = 0
    for seed in range(40):
        gen = _Gen(random.Random(f"pullback/{seed}"), (4, 5), inst)
        for f, g in _generated_cospans(gen):
            pb = assert_same_as_oracle(f, g, inst)
            items += len(carrier(pb.apex).nodes) + len(carrier(pb.apex).src)
    # The comparison is not vacuous: the apexes are not all empty.
    assert items > 100


def test_polarized_fpbc_pullback_matches_the_oracle():
    """The pullback ``fpbc`` takes in the polarized setting: the classifying
    arrow of the match against the enlargement of the left leg."""
    inst = default_instance("pol")
    items = 0
    for seed in range(20):
        gen = _Gen(random.Random(f"pullback/pol/{seed}"), (4, 5), inst)
        l, m = gen.fpbc_pair()
        pb = assert_same_as_oracle(bar(m, inst), t_morphism(l, inst), inst)
        items += len(carrier(pb.apex).nodes)
    assert items > 20


def test_ambiguous_commas_collide():
    """``(a,b,c)`` names both the pair ``(a,b)``/``c`` and ``a``/``(b,c)``."""
    inst = default_instance("gr")
    z = Graph.build(["z"])
    x = Graph.build(["a,b", "a"])
    y = Graph.build(["c", "b,c"])
    f = Morphism(x, z, {"a,b": "z", "a": "z"}, {})
    g = Morphism(y, z, {"c": "z", "b,c": "z"}, {})
    with pytest.raises(StructuralError, match="pair naming collided"):
        pullback(f, g, inst)
