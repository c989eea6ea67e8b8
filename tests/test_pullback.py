"""The hash-joined pullback: the same apex, projections and insertion
orders as the nested-loop construction it replaced, also where the join
sorts and buckets only the right-foot items that the left foot hits."""

import json
import pathlib
import random

import pytest

from agree import (
    Graph,
    Morphism,
    PolarizedGraph,
    PreconditionError,
    StructuralError,
    agree_step,
    bar,
    fpbc,
    identity,
    is_pullback_square,
    phi,
    pullback,
    t_morphism,
)
from agree.io import parse_rule
from agree.laws import _Gen, default_instance

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def oracle(f, g, instance):
    """``(apex, p1, p2)`` of the cospan ``f: X -> Z <- Y :g``, pairing every
    item of X with every item of Y in nested loops over sorted ids."""
    gx, gy = f.source, g.source
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

    apex = Graph(
        frozenset(node_ids.values()), src, tgt,
        meets(f.source.node_labels, g.source.node_labels, node_ids),
        meets(f.source.edge_labels, g.source.edge_labels, edge_ids),
        instance.typegraph,
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
    assert list(pb.apex.nodes) == list(apex.nodes)
    assert list(pb.apex.src.items()) == list(apex.src.items())
    assert list(pb.apex.tgt.items()) == list(apex.tgt.items())
    for labels, expected in ((pb.apex.node_labels, apex.node_labels),
                             (pb.apex.edge_labels, apex.edge_labels)):
        if expected is None:
            assert labels is None
        else:
            assert list(labels.items()) == list(expected.items())
    assert (pb.p1, pb.p2) == (p1, p2)
    assert (ordered(pb.p1), ordered(pb.p2)) == (ordered(p1), ordered(p2))
    assert_ends_share_node_names(pb.apex)
    return pb


def assert_ends_share_node_names(obj):
    """Every edge end of ``obj`` is the very string its node set holds, not
    an equal copy."""
    g = obj
    own = {x: x for x in g.nodes}
    assert all(own[x] is x for x in g.src.values())
    assert all(own[x] is x for x in g.tgt.values())


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
            items += len(pb.apex.nodes) + len(pb.apex.src)
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
        items += len(pb.apex.nodes)
    assert items > 20


@pytest.mark.parametrize("rule_file", sorted(p.name for p in FIXTURES.glob("*_rule.json")))
def test_step_cospan_matches_the_oracle(rule_file):
    """The cospan a step pulls back, ``bar(m)`` against ``phi(t, l)``, for
    each fixture rule on a host far larger than its left-hand side: a
    star with two partners (``clone_node_rule``), a star with none
    (``delete_node_rule``) and typed labels (``web_copy_rule``).
    ``nonlocal_keep_one_rule`` has no star, so its apex is the match's
    image alone."""
    rule, inst = parse_rule(json.loads((FIXTURES / rule_file).read_text(encoding="utf-8")))
    cospan_right = phi(rule.t, rule.l, inst)
    for seed in range(5):
        gen = _Gen(random.Random(f"pullback/step/{rule_file}/{seed}"), (3, 4), inst)
        m = gen.match_onto(rule.lhs, extra_nodes=30, extra_edges=60)
        pb = assert_same_as_oracle(bar(m, inst), cospan_right, inst)
        assert len(pb.apex.nodes) >= len(rule.lhs.nodes)


def _missed(f, g):
    """How many items of ``g``'s source have an image ``f`` never hits."""
    gy = g.source
    nodes, edges = set(f.nodemap.values()), set(f.edgemap.values())
    return (sum(g.nodemap[y] not in nodes for y in gy.nodes)
            + sum(g.edgemap[d] not in edges for d in gy.src))


@pytest.mark.parametrize("category", ["gr", "typed"])
def test_small_left_foot_against_a_large_right_foot(category):
    """The shape ``is_pullback_square(l, n, m, g)`` pulls back after a step:
    the match ``m: L -> G`` against the context arrow ``g: D -> G``, whose
    source is far larger and mostly outside the match's image.  Also the
    feet swapped, and the match against the identity of its host."""
    inst = default_instance(category)
    missed = 0
    for seed in range(15):
        gen = _Gen(random.Random(f"pullback/large/{category}/{seed}"), (3, 4), inst)
        rule = gen.span_rule()
        m = gen.match_onto(rule.lhs, extra_nodes=30, extra_edges=60)
        g = agree_step(rule, m, inst).g
        assert len(g.source.nodes) > 5 * len(m.source.nodes)
        assert_same_as_oracle(m, g, inst)
        assert_same_as_oracle(g, m, inst)
        assert_same_as_oracle(m, identity(m.target), inst)
        missed += _missed(m, g)
    assert missed > 15 * 30


def test_polarized_match_against_a_large_context():
    inst = default_instance("pol")
    missed = 0
    for seed in range(15):
        gen = _Gen(random.Random(f"pullback/large/pol/{seed}"), (3, 4), inst)
        l, m = gen.fpbc_pair()
        m = gen.match_onto(m.source, extra_nodes=30, extra_edges=60)
        a = fpbc(l, m, inst).a
        assert_same_as_oracle(m, a, inst)
        assert_same_as_oracle(a, m, inst)
        missed += _missed(m, a)
    assert missed > 15 * 30


def test_right_foot_items_the_left_never_hits():
    """A right foot with every kind of item: hit once, hit by several left
    items, and never hit, in an order unlike the sorted one."""
    inst = default_instance("gr")
    z = Graph.build(["z2", "z0", "z1", "z3"], {"c1": ("z0", "z1"), "c0": ("z1", "z1"), "c2": ("z2", "z3")})
    x = Graph.build(["b", "a", "c"], {"f1": ("a", "b"), "f0": ("b", "b")})
    f = Morphism(x, z, {"b": "z1", "a": "z0", "c": "z1"}, {"f1": "c1", "f0": "c0"})
    ys = [f"y{i:02}" for i in range(40, 0, -1)]
    gmap = {n: ("z0", "z1", "z2", "z3")[int(n[1:]) % 4] for n in ys}
    by_ends = {z.ends(c): c for c in z.src}
    edges = {}
    for i in range(40):
        for k in (1, 3, 4):
            s, t = ys[i], ys[(i + k) % 40]
            if (gmap[s], gmap[t]) in by_ends:
                edges[f"d{k}.{39 - i}"] = (s, t)
    g = Morphism(Graph.build(ys, edges), z, gmap,
                 {d: by_ends[(gmap[s], gmap[t])] for d, (s, t) in edges.items()})
    pb = assert_same_as_oracle(f, g, inst)
    assert_same_as_oracle(g, f, inst)
    assert len(pb.apex.nodes) == 3 * 10 and pb.apex.src
    assert _missed(f, g) > 10


def test_polarized_graph_words_its_first_unsupported_edge():
    """The support check runs on whole columns; the message names the first
    edge in edge order that lacks support, its + side before its - side."""
    g = Graph.build(["a", "b", "c"], {"e2": ("a", "b"), "e0": ("c", "a"), "e1": ("b", "c")})
    cases = [
        (frozenset("abc"), frozenset("abc"), None),
        (frozenset("ab"), frozenset("bc"), "edge 'e0' leaves node 'c' without + polarity"),
        (frozenset("abc"), frozenset("ac"), "edge 'e2' enters node 'b' without - polarity"),
        (frozenset("bc"), frozenset("ac"), "edge 'e2' leaves node 'a' without + polarity"),
        (frozenset("a"), frozenset("b"), "edge 'e0' leaves node 'c' without + polarity"),
        (frozenset("ac"), frozenset("b"), "edge 'e0' enters node 'a' without - polarity"),
    ]
    for nplus, nminus, message in cases:
        if message is None:
            assert PolarizedGraph(g, nplus, nminus).node_labels["a"] == frozenset("+-")
            continue
        with pytest.raises(StructuralError) as err:
            PolarizedGraph(g, nplus, nminus)
        assert str(err.value) == message


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


def test_ambiguous_commas_in_edge_ids_collide():
    """The nodes pair up under distinct names, the edges do not."""
    inst = default_instance("gr")
    z = Graph.build(["z"], {"l": ("z", "z")})
    x = Graph.build(["p"], {"a,b": ("p", "p"), "a": ("p", "p")})
    y = Graph.build(["q"], {"c": ("q", "q"), "b,c": ("q", "q")})
    f = Morphism(x, z, {"p": "z"}, {"a,b": "l", "a": "l"})
    g = Morphism(y, z, {"q": "z"}, {"c": "l", "b,c": "l"})
    with pytest.raises(StructuralError, match="pair naming collided"):
        pullback(f, g, inst)


# A leg that is not a homomorphism: d: p -> q goes to e: a -> b, but p to b.
_X = Graph.build(["p", "q"], {"d": ("p", "q")})
_Z = Graph.build(["a", "b"], {"e": ("a", "b")})
# d: p -> s goes to e: a -> b, but p to b, while q and r both go to a.
_X4 = Graph.build(["p", "q", "r", "s"], {"d": ("p", "s")})
_INVALID_LEGS = [
    Morphism(_X, _Z, {"p": "b", "q": "a"}, {"d": "e"}),
    Morphism(_X, _Z, {"p": "a"}, {"d": "e"}),
    Morphism(_X, _Z, {"p": "a", "q": "b"}, {}),
    # As the second leg, e's source a pairs with nothing at all.
    Morphism(_X, _Z, {"p": "b", "q": "b"}, {"d": "e"}),
    # As the second leg, a pairs with q and r, but not with d's source p.
    Morphism(_X4, _Z, {"p": "b", "q": "a", "r": "a", "s": "b"}, {"d": "e"}),
]


@pytest.mark.parametrize("leg", _INVALID_LEGS, ids=["bent_edge", "missing_node", "missing_edge",
                                                     "bent_edge_to_unpaired_end",
                                                     "bent_edge_past_two_partners"])
@pytest.mark.parametrize("side", ["first", "second"])
def test_invalid_leg_is_refused_by_name(leg, side):
    """A leg whose maps the join or the end lookups cannot read is refused
    with ``PreconditionError`` naming it, not with a bare ``KeyError``."""
    inst = default_instance("gr")
    legs = (leg, identity(_Z)) if side == "first" else (identity(_Z), leg)
    with pytest.raises(PreconditionError, match=f"the {side} leg is not a valid morphism"):
        pullback(*legs, inst)


def test_square_over_ambiguous_commas_is_decided():
    """Deciding a square names no pairs, so the feet whose pair names
    collide still get an answer: the four pairs are a pullback, three are
    not."""
    inst = default_instance("gr")
    z = Graph.build(["z"])
    x = Graph.build(["a,b", "a"])
    y = Graph.build(["c", "b,c"])
    f = Morphism(x, z, {"a,b": "z", "a": "z"}, {})
    g = Morphism(y, z, {"c": "z", "b,c": "z"}, {})
    pairs = [(a, b) for a in ("a,b", "a") for b in ("c", "b,c")]
    apex = Graph.build([f"u{i}" for i in range(4)])
    p = Morphism(apex, x, {f"u{i}": a for i, (a, _) in enumerate(pairs)}, {})
    q = Morphism(apex, y, {f"u{i}": b for i, (_, b) in enumerate(pairs)}, {})
    assert is_pullback_square(p, q, f, g, inst)
    three = Graph.build([f"u{i}" for i in range(3)])
    p3 = Morphism(three, x, {u: a for u, a in p.nodemap.items() if u in three.nodes}, {})
    q3 = Morphism(three, y, {u: b for u, b in q.nodemap.items() if u in three.nodes}, {})
    assert not is_pullback_square(p3, q3, f, g, inst)
