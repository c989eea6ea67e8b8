"""The match search: same maps in the same order as a bind-all-then-check
search, and the same node maps as networkx's monomorphism matcher."""

import operator
import random
import tracemalloc
from collections import Counter
from itertools import islice, product

import pytest

from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    enumerate_matches,
    enumerate_monos,
    enumerate_morphisms,
    iso_search,
    typed_over,
)
from agree.catops import _host_index, _search
from agree.laws import _Gen, default_instance
from search_reference import _search as reference_search


def oracle(obj_x, obj_y, *, injective, order):
    """Every map ``obj_x -> obj_y``, found by binding all pattern nodes
    before any edge is looked at, in lexicographic order over sorted ids."""
    gx, gy = obj_x, obj_y
    xs = sorted(gx.nodes)
    ys = sorted(gy.nodes)
    xl, yl = obj_x.node_labels, obj_y.node_labels
    xe, ye = obj_x.edge_labels, obj_y.edge_labels
    out_x, in_x = Counter(gx.src.values()), Counter(gx.tgt.values())
    out_y, in_y = Counter(gy.src.values()), Counter(gy.tgt.values())

    cand = {}
    for x in xs:
        cand[x] = [
            y for y in ys
            if (xl is None or order(xl[x], yl[y]))
            and not (injective and (out_y[y] < out_x[x] or in_y[y] < in_x[x]))
        ]

    es = sorted(gx.src)
    ds = sorted(gy.src)

    def edge_candidates(e, nodemap):
        fs, ft = nodemap[gx.src[e]], nodemap[gx.tgt[e]]
        return [d for d in ds if gy.src[d] == fs and gy.tgt[d] == ft
                and (xe is None or order(xe[e], ye[d]))]

    def assign_edges(i, nodemap, edgemap, used_edges):
        if i == len(es):
            yield Morphism(obj_x, obj_y, dict(nodemap), dict(edgemap))
            return
        e = es[i]
        for d in edge_candidates(e, nodemap):
            if injective and d in used_edges:
                continue
            edgemap[e] = d
            used_edges.add(d)
            yield from assign_edges(i + 1, nodemap, edgemap, used_edges)
            used_edges.discard(d)
            del edgemap[e]

    def assign_nodes(i, nodemap, used):
        if i == len(xs):
            yield from assign_edges(0, nodemap, {}, set())
            return
        x = xs[i]
        for y in cand[x]:
            if injective and y in used:
                continue
            nodemap[x] = y
            used.add(y)
            yield from assign_nodes(i + 1, nodemap, used)
            used.discard(y)
            del nodemap[x]

    yield from assign_nodes(0, {}, set())


def maps(morphisms):
    return [(m.nodemap, m.edgemap) for m in morphisms]


def assert_same_as_oracle(x, y, instance):
    monos = maps(enumerate_monos(x, y, instance))
    assert monos == maps(oracle(x, y, injective=True, order=operator.eq))
    morphisms = maps(enumerate_morphisms(x, y, instance))
    assert morphisms == maps(oracle(x, y, injective=False, order=instance.leq))
    return monos, morphisms


# -- differential: generated objects -------------------------------------------

def _generated_pairs(gen):
    """Pattern/host pairs with and without guaranteed matches."""
    m = gen.mono()
    yield m.source, m.target
    f = gen.morphism()
    yield f.source, f.target
    lhs = gen.object("p", 3, 3)
    yield lhs, gen.match_onto(lhs).target
    yield gen.object("p", 3, 3), gen.object("h", 5, 8)


@pytest.mark.parametrize("category", ["gr", "typed", "pol"])
def test_generated_objects_match_the_oracle(category):
    inst = default_instance(category)
    found = Counter()
    for seed in range(40):
        gen = _Gen(random.Random(f"matcher/{seed}"), (4, 5), inst)
        for x, y in _generated_pairs(gen):
            monos, morphisms = assert_same_as_oracle(x, y, inst)
            found["monos"] += len(monos)
            found["morphisms"] += len(morphisms)
    # The comparison is not vacuous: both searches find maps.
    assert found["monos"] > 40 and found["morphisms"] > found["monos"]


# -- differential: hand-written cases -------------------------------------------

LOOPY_HOST = Graph.build(
    ["u", "v", "w"],
    {"l1": ("u", "u"), "l2": ("u", "u"), "l3": ("w", "w"), "uv": ("u", "v"), "vw": ("v", "w")},
)


def test_loops():
    pattern = Graph.build(["a"], {"la": ("a", "a")})
    monos, _ = assert_same_as_oracle(pattern, LOOPY_HOST, GR)
    assert monos == [({"a": "u"}, {"la": "l1"}), ({"a": "u"}, {"la": "l2"}),
                     ({"a": "w"}, {"la": "l3"})]


def test_parallel_edges():
    pattern = Graph.build(["a", "b"], {"p": ("a", "b"), "q": ("a", "b")})
    host = Graph.build(["u", "v"], {"e1": ("u", "v"), "e2": ("u", "v"), "e3": ("u", "v"),
                                    "back": ("v", "u")})
    monos, morphisms = assert_same_as_oracle(pattern, host, GR)
    assert len(monos) == 6 and len(morphisms) == 10  # nine onto u -> v, one onto back


def test_isolated_pattern_nodes():
    pattern = Graph.build(["a", "b", "c"], {"ab": ("a", "b")})
    monos, _ = assert_same_as_oracle(pattern, LOOPY_HOST, GR)
    assert [m[0] for m in monos] == [{"a": "u", "b": "v", "c": "w"}, {"a": "v", "b": "w", "c": "u"}]


def test_empty_pattern():
    for host in (Graph.build(), LOOPY_HOST):
        monos, morphisms = assert_same_as_oracle(Graph.build(), host, GR)
        assert monos == morphisms == [({}, {})]


def test_nonempty_pattern_into_empty_host():
    monos, morphisms = assert_same_as_oracle(Graph.build(["a"]), Graph.build(), GR)
    assert monos == morphisms == []


def test_non_injective_maps_collapse_onto_a_host_loop():
    pattern = Graph.build(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")})
    host = Graph.build(["u", "v"], {"loop": ("u", "u"), "uv": ("u", "v")})
    monos, morphisms = assert_same_as_oracle(pattern, host, GR)
    assert monos == []
    assert morphisms == [({"a": "u", "b": "u", "c": "u"}, {"ab": "loop", "bc": "loop", "ca": "loop"})]


def test_typed_parallel_edges_that_differ_only_in_type():
    tg = Graph.build(["T"], {"p": ("T", "T"), "q": ("T", "T")})
    inst = typed_over(tg)
    host = Graph.build(["u", "v"], {"e1": ("u", "v"), "e2": ("u", "v"), "e3": ("v", "u")},
                       {"u": "T", "v": "T"}, {"e1": "p", "e2": "q", "e3": "q"}, tg)
    pattern = Graph.build(["x", "y"], {"xy": ("x", "y")},
                          {"x": "T", "y": "T"}, {"xy": "q"}, tg)
    monos, _ = assert_same_as_oracle(pattern, host, inst)
    assert monos == [({"x": "u", "y": "v"}, {"xy": "e2"}), ({"x": "v", "y": "u"}, {"xy": "e3"})]


def test_node_bound_before_its_only_neighbour():
    # "a" comes first in sorted order; its only neighbour "c" comes last.
    pattern = Graph.build(["a", "b", "c"], {"ca": ("c", "a"), "bc": ("b", "c")})
    host = Graph.build(["u", "v", "w", "x"], {"wu": ("w", "u"), "vw": ("v", "w"), "xw": ("x", "w"),
                                              "uv": ("u", "v")})
    monos, _ = assert_same_as_oracle(pattern, host, GR)
    assert [m[0] for m in monos] == [{"a": "u", "b": "v", "c": "w"}, {"a": "u", "b": "x", "c": "w"},
                                     {"a": "v", "b": "w", "c": "u"}, {"a": "w", "b": "u", "c": "v"}]


def test_polarized_capabilities_below_their_images():
    host = Graph.build(["u", "v"], {"uv": ("u", "v")},
                       {"u": frozenset("+-"), "v": frozenset("-")}, None)
    pattern = Graph.build(["a", "b"], {"ab": ("a", "b")},
                          {"a": frozenset("+"), "b": frozenset("-")}, None)
    monos, morphisms = assert_same_as_oracle(pattern, host, GRPOL)
    assert monos == [] and morphisms == [({"a": "u", "b": "v"}, {"ab": "uv"})]


# -- cross-check: networkx's monomorphism matcher -------------------------------

TYPEGRAPH = Graph.build(["A", "B"], {"aa": ("A", "A"), "ab": ("A", "B"), "ba": ("B", "A")})
# Pattern edges as (src, tgt); typed patterns add node types, and the type
# graph has one edge type per pair of node types, so node types decide them.
PATTERNS = {
    "edge": ({"ab": ("a", "b")}, {"a": "A", "b": "B"}),
    "path": ({"ab": ("a", "b"), "bc": ("b", "c")}, {"a": "A", "b": "B", "c": "A"}),
    "triangle": ({"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")}, {"a": "A", "b": "A", "c": "B"}),
}
_EDGE_TYPE = {(TYPEGRAPH.src[t], TYPEGRAPH.tgt[t]): t for t in TYPEGRAPH.src}


def _random_host(rng, n, m, node_types):
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = {}
    while len(edges) < m:
        s, t = rng.choice(nodes), rng.choice(nodes)
        if node_types is None or (node_types[s], node_types[t]) in _EDGE_TYPE:
            edges[f"e{len(edges):03d}"] = (s, t)
    return Graph.build(nodes, edges)


def _typed(inst, graph, node_types):
    edge_types = {e: _EDGE_TYPE[node_types[graph.src[e]], node_types[graph.tgt[e]]] for e in graph.src}
    return Graph(graph.nodes, graph.src, graph.tgt, node_types, edge_types, inst.typegraph)


def _nx_graph(nx, graph, node_types):
    g = nx.MultiDiGraph()
    for x in sorted(graph.nodes):
        g.add_node(x, type=node_types[x] if node_types else None)
    g.add_edges_from(graph.ends(e) for e in sorted(graph.src))
    return g


@pytest.mark.parametrize("typed", [False, True], ids=["plain", "typed"])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_node_maps_agree_with_networkx(pattern, typed):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import MultiDiGraphMatcher

    edges, pattern_types = PATTERNS[pattern]
    inst = typed_over(TYPEGRAPH) if typed else GR
    lhs = Graph.build(sorted(pattern_types), edges)
    small = _nx_graph(nx, lhs, pattern_types if typed else None)
    lhs = _typed(inst, lhs, pattern_types) if typed else lhs
    node_match = (lambda u, v: u["type"] == v["type"]) if typed else None  # noqa: E731
    found = 0
    for seed in range(6):
        rng = random.Random(f"nx/{pattern}/{seed}")
        n = rng.randint(8, 14)
        host_types = {f"n{i:02d}": rng.choice("AB") for i in range(n)} if typed else None
        host = _random_host(rng, n, 3 * n, host_types)
        big = _nx_graph(nx, host, host_types)
        host = _typed(inst, host, host_types) if typed else host

        ours = {tuple(sorted(m.nodemap.items())) for m in enumerate_matches(lhs, host, inst)}
        matcher = MultiDiGraphMatcher(big, small, node_match=node_match)
        theirs = {tuple(sorted((p, h) for h, p in mapping.items()))
                  for mapping in matcher.subgraph_monomorphisms_iter()}
        assert ours == theirs
        found += len(ours)
    assert found > 0


# -- differential: the recursive search on hosts of realistic size -------------

# Patterns over nodes typed A/B as in PATTERNS; "two anchors" binds "c" next
# to both "a" (a successor) and "b" (a predecessor), "in star" to both as
# successors, so "c" draws from the smaller of two adjacency lists.  The
# reference prunes by degree and the engine does not: "out star" starts at
# an unanchored node of out-degree 2, so the pruning cuts its free list,
# and "parallel pair" needs out-degree 2 at "a" and in-degree 2 at "b",
# where the pruning cuts the largest share of (pattern node, host node)
# pairs, about a fifth on the plain hosts below.
LARGE_PATTERNS = {
    **PATTERNS,
    "two anchors": ({"ac": ("a", "c"), "cb": ("c", "b")}, {"a": "A", "b": "B", "c": "A"}),
    "in star": ({"ac": ("a", "c"), "bc": ("b", "c")}, {"a": "A", "b": "A", "c": "A"}),
    "out star": ({"ab": ("a", "b"), "ac": ("a", "c")}, {"a": "A", "b": "B", "c": "A"}),
    "parallel pair": ({"p": ("a", "b"), "q": ("a", "b")}, {"a": "A", "b": "A"}),
}


def _polarized(graph, rng):
    """``graph`` with the capabilities its edges need and, at random, more."""
    caps = {x: set(rng.choice(["", "+", "-", "+-"])) for x in sorted(graph.nodes)}
    for e in graph.src:
        caps[graph.src[e]].add("+")
        caps[graph.tgt[e]].add("-")
    return Graph(graph.nodes, graph.src, graph.tgt, {x: frozenset(c) for x, c in caps.items()})


def _in_setting(setting, graph, node_types, rng):
    if setting == "typed":
        return _typed(typed_over(TYPEGRAPH), graph, node_types)
    if setting == "pol":
        return _polarized(graph, rng)
    return graph


def _listed(search, host, pattern, *, injective, order):
    """The search's maps with their dicts' insertion order."""
    return [(list(nodemap.items()), list(edgemap.items())) for nodemap, edgemap in
            search(host, pattern, pattern.node_labels, pattern.edge_labels, injective=injective, order=order)]


@pytest.mark.parametrize("setting", ["gr", "typed", "pol"])
@pytest.mark.parametrize("pattern", sorted(LARGE_PATTERNS))
def test_search_matches_the_recursive_search_on_large_hosts(pattern, setting):
    """The one-frame search lists the maps of the recursive search it
    replaced, in its order, on 100-node, 300-edge hosts.  The reference
    still prunes candidates by degree, so this also shows that the
    engine's search, which does not, lists no map fewer or more."""
    inst = {"gr": GR, "typed": typed_over(TYPEGRAPH), "pol": GRPOL}[setting]
    edges, pattern_types = LARGE_PATTERNS[pattern]
    found = Counter()
    for seed in range(2):
        rng = random.Random(f"large/{pattern}/{setting}/{seed}")
        lhs = _in_setting(setting, Graph.build(sorted(pattern_types), edges), pattern_types, rng)
        host_types = {f"n{i:02d}": rng.choice("AB") for i in range(100)}
        host = _random_host(rng, 100, 300, host_types if setting == "typed" else None)
        host = _in_setting(setting, host, host_types, rng)
        index = _host_index(host, host.node_labels, host.edge_labels)
        patterns = [lhs]
        if setting == "pol":
            # Monos keep labels exactly, and almost every node of these hosts
            # has both capabilities, which a pattern with random ones seldom
            # asks for; the pattern with both everywhere has monos.
            patterns.append(Graph(lhs.nodes, lhs.src, lhs.tgt, dict.fromkeys(lhs.nodes, frozenset("+-"))))
        for pat, (injective, order) in product(patterns, ((True, operator.eq), (False, inst.leq))):
            ours = _listed(_search, index, pat, injective=injective, order=order)
            assert ours == _listed(reference_search, index, pat, injective=injective, order=order)
            found[injective] += len(ours)
    # Both searches find maps; every mono is among the morphisms.
    assert found[True] > 0 and found[False] >= found[True]


# -- laziness ----------------------------------------------------------------------

def test_search_is_lazy_on_a_bundle_with_factorially_many_isos():
    """A 9-edge parallel bundle has 9! = 362,880 isos onto itself; taking
    the first few, or the first iso, must not list the rest.  Polarized,
    "b" is an anchored level whose candidates pass the label filter."""
    edges = {f"e{i}": ("a", "b") for i in range(9)}
    for bundle, inst in ((Graph.build(["a", "b"], edges), GR),
                         (Graph.build(["a", "b"], edges, {"a": frozenset("+"), "b": frozenset("-")}), GRPOL)):
        identity = ({"a": "a", "b": "b"}, {e: e for e in bundle.src})
        for first in (lambda: list(islice(enumerate_monos(bundle, bundle, inst), 3))[0],
                      lambda: iso_search(bundle, bundle, inst)):
            tracemalloc.start()
            try:
                got = first()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            assert (got.nodemap, got.edgemap) == identity
