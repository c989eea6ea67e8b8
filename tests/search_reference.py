"""The match search as it was before it became one generator frame.

``_search`` here is the recursive search that ``agree.catops._search``
replaced, kept verbatim: it binds pattern nodes in sorted order through
one generator per binding, then pattern edges likewise, and calls
``fits``, ``candidates`` and ``edges_present`` for every candidate.
``tests/test_matcher.py`` compares the two list-for-list on hosts of
realistic size, which the bind-all-then-check oracle there cannot reach.
"""

from collections import Counter
from typing import Iterator

from agree import Graph
from agree.catops import _Host


def _search(host: _Host, gx: Graph, xl, xe, *, injective: bool, order) -> Iterator[tuple]:
    """``(nodemap, edgemap)`` of every map from the pattern ``gx``, labelled
    ``xl``/``xe``, into ``host`` whose labels are ``order``-below their
    images'; injective ones only if asked.

    The order is lexicographic over the sorted pattern node ids, then the
    sorted pattern edge ids, each ranging over sorted host ids.  Pattern
    nodes are bound in that order: binding a node checks every pattern
    edge whose later endpoint it is, and a node with an edge to one bound
    before it draws its candidates from that node's host neighbours.  Only
    partial maps without a completion are cut, so the output is that of
    the plain product search.
    """
    xs = sorted(gx.nodes)
    yl, ye, between = host.node_labels, host.edge_labels, host.between
    out_x, in_x = (Counter(gx.src.values()), Counter(gx.tgt.values())) if injective else ({}, {})
    out_y, in_y = host.out_degree, host.in_degree

    # Per pattern node: the edges checked when it is bound, as (src, tgt,
    # label), and the earlier neighbours it can draw candidates from, as
    # (neighbour, host adjacency to read at the neighbour's image).
    rank = {x: i for i, x in enumerate(xs)}
    checks = {x: [] for x in xs}
    anchors = {x: [] for x in xs}
    es = sorted(gx.src)
    ends = [(gx.src[e], gx.tgt[e], None if xe is None else xe[e]) for e in es]
    for s, t, label in ends:
        later, earlier, adjacency = (t, s, host.succ) if rank[t] >= rank[s] else (s, t, host.pred)
        checks[later].append((s, t, label))
        if earlier != later:
            anchors[later].append((earlier, adjacency))

    def fits(x, y):
        return ((xl is None or order(xl[x], yl[y]))
                and not (injective and (out_y[y] < out_x[x] or in_y[y] < in_x[x])))

    free = {x: [y for y in host.nodes if fits(x, y)] for x in xs if not anchors[x]}

    def candidates(x, nodemap):
        if not anchors[x]:
            return free[x]
        near = min((adjacency.get(nodemap[u], ()) for u, adjacency in anchors[x]), key=len)
        return [y for y in near if fits(x, y)]

    def edges_present(x, nodemap):
        for s, t, label in checks[x]:
            ds = between.get((nodemap[s], nodemap[t]))
            if not ds or (label is not None and not any(order(label, ye[d]) for d in ds)):
                return False
        return True

    def assign_edges(i, nodemap, edgemap, used_edges):
        if i == len(es):
            yield dict(nodemap), dict(edgemap)
            return
        e = es[i]
        s, t, label = ends[i]
        for d in between.get((nodemap[s], nodemap[t]), ()):
            if (label is not None and not order(label, ye[d])) or (injective and d in used_edges):
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
        for y in candidates(x, nodemap):
            if injective and y in used:
                continue
            nodemap[x] = y
            if edges_present(x, nodemap):
                used.add(y)
                yield from assign_nodes(i + 1, nodemap, used)
                used.discard(y)
            del nodemap[x]

    yield from assign_nodes(0, {}, set())
