"""Concrete finite limit/colimit machinery with canonical naming.

Pullbacks name their elements ``(x,y)`` after the component pair, pushouts
prefix the two summands with ``D:`` and ``R:``.  These schemes are part of
the external contract so serialized outputs are stable and diffable.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Optional

from .core import (
    CategoryInstance,
    Graph,
    Morphism,
    compose,
    require_object,
    validate_morphism,
)
from .errors import InvariantError, PreconditionError, StructuralError

__all__ = [
    "Pullback",
    "Pushout",
    "pullback",
    "pullback_mediator",
    "pushout_along_mono",
    "is_pullback_square",
    "iso_search",
    "enumerate_morphisms",
    "enumerate_monos",
]


def _pair(a: str, b: str) -> str:
    return f"({a},{b})"


def _checked(instance, source, target, nodemap, edgemap) -> tuple:
    """The morphism and its validation report, checked valid."""
    m = Morphism(source, target, nodemap, edgemap)
    rep = validate_morphism(m, instance)
    if not rep.valid:
        raise InvariantError(f"internal construction produced an invalid morphism: {rep.problems}")
    return m, rep


@dataclass(frozen=True)
class Pullback:
    """Canonical pullback of a cospan ``f: X -> Z <- Y :g``."""

    apex: object
    p1: Morphism  # apex -> X
    p2: Morphism  # apex -> Y
    f: Morphism
    g: Morphism


def pullback(f: Morphism, g: Morphism, instance: CategoryInstance) -> Pullback:
    """Pullback object of componentwise pairs, with projections.

    Nodes are pairs ``(x,y)`` with equal images, edges likewise; a pair is
    labelled with the meet of its components' labels.  Pulling back an
    admissible mono yields an admissible mono.
    """
    if f.target != g.target:
        raise PreconditionError("pullback needs a cospan: the two arrows must share their target")
    require_object(f.source, instance)
    require_object(g.source, instance)
    gx, gy = f.source, g.source

    node_x, node_y, node_names = _join(gx.nodes, gy.nodes, f.nodemap, g.nodemap)
    edge_x, edge_y, edge_names = _join(gx.src, gy.src, f.edgemap, g.edgemap)
    nodes = frozenset(node_names)
    if len(nodes) != len(node_names) or len(set(edge_names)) != len(edge_names):
        raise StructuralError("pair naming collided; source ids embed ambiguous commas")

    # An edge pair's ends are the pairs of its components' ends; the name
    # table hands back the apex node's own string for each end's name.
    node_of = dict(zip(node_names, node_names))
    xsrc, xtgt, ysrc, ytgt = gx.src, gx.tgt, gy.src, gy.tgt
    src = {eid: node_of[f"({xsrc[e]},{ysrc[d]})"] for eid, e, d in zip(edge_names, edge_x, edge_y)}
    tgt = {eid: node_of[f"({xtgt[e]},{ytgt[d]})"] for eid, e, d in zip(edge_names, edge_x, edge_y)}
    apex = Graph(
        nodes, src, tgt,
        _meets(instance, gx.node_labels, gy.node_labels, node_x, node_y, node_names),
        _meets(instance, gx.edge_labels, gy.edge_labels, edge_x, edge_y, edge_names),
        instance.typegraph,
    )

    p1, p1_report = _checked(instance, apex, f.source,
                             dict(zip(node_names, node_x)), dict(zip(edge_names, edge_x)))
    p2, _ = _checked(instance, apex, g.source,
                     dict(zip(node_names, node_y)), dict(zip(edge_names, edge_y)))
    if validate_morphism(g, instance).is_mono_in_M and not p1_report.is_mono_in_M:
        raise InvariantError("stability of admissible monos failed")
    return Pullback(apex, p1, p2, f, g)


def _join(xs, ys, fmap, gmap) -> tuple:
    """``(left, right, names)``: the pairs ``(x, y)`` with ``fmap[x] ==
    gmap[y]`` as two columns of ids and their ``"(x,y)"`` names, in
    lexicographic order of the sorted ids: a hash join on the image.  Only
    the items of ``ys`` whose image some item of ``xs`` hits are sorted and
    bucketed."""
    hit = set(fmap.values())
    by_image = {}
    for y in sorted([y for y in ys if gmap[y] in hit]):
        by_image.setdefault(gmap[y], []).append(y)
    bucket = by_image.get
    left, right, names = [], [], []
    for x in sorted(xs):
        for y in bucket(fmap[x], ()):
            left.append(x)
            right.append(y)
            names.append(f"({x},{y})")
    return left, right, names


def _meets(instance, left, right, xs, ys, names):
    if left is None:
        return None
    meet = instance.meet
    return {name: meet(left[x], right[y]) for name, x, y in zip(names, xs, ys)}


def pullback_mediator(pb: Pullback, v: Morphism, w: Morphism) -> Morphism:
    """The unique arrow into the canonical pullback induced by a commuting cone."""
    if v.source != w.source:
        raise PreconditionError("cone legs must share their source")
    if v.target != pb.f.source or w.target != pb.g.source:
        raise PreconditionError("cone legs must land in the pullback's feet")
    if compose(pb.f, v) != compose(pb.g, w):
        raise PreconditionError("cone does not commute with the cospan")
    nodemap = {x: _pair(v.nodemap[x], w.nodemap[x]) for x in v.nodemap}
    edgemap = {e: _pair(v.edgemap[e], w.edgemap[e]) for e in v.edgemap}
    apex = pb.apex
    if not (apex.nodes.issuperset(nodemap.values()) and apex.src.keys() >= set(edgemap.values())):
        raise InvariantError("the mediator leaves the pullback's apex")
    return Morphism(v.source, pb.apex, nodemap, edgemap)


@dataclass(frozen=True)
class Pushout:
    """Pushout of ``D <-n- K -r-> R`` along an admissible mono ``n``."""

    result: object
    h: Morphism  # D -> result
    p: Morphism  # R -> result


def pushout_along_mono(n: Morphism, r: Morphism, instance: CategoryInstance) -> Pushout:
    """Glue ``R`` into ``D`` over ``K``: kept context keeps a ``D:`` prefix,
    right-hand-side items enter with an ``R:`` prefix."""
    if instance.kind == "grpol":
        raise PreconditionError("pushouts are only provided for plain and typed graphs")
    if n.source != r.source:
        raise PreconditionError("pushout needs a span: the two arrows must share their source")
    if not validate_morphism(n, instance).is_mono_in_M:
        raise PreconditionError("pushout requires the first leg to be an admissible mono")
    rep = validate_morphism(r, instance)
    if not rep.valid:
        raise PreconditionError(f"pushout requires a valid second leg: {rep.problems}")
    gd, gr_ = n.target, r.target

    # Every item is named once: D's items as ``D:`` items, then the glued
    # ones renamed after their right-hand-side images, in place.
    p_nodes = {y: "R:" + y for y in gr_.nodes}
    p_edges = {d: "R:" + d for d in gr_.src}
    h_nodes = {x: "D:" + x for x in gd.nodes}
    h_nodes.update({x: p_nodes[r.nodemap[k]] for k, x in n.nodemap.items()})
    h_edges = {e: "D:" + e for e in gd.src}
    h_edges.update({e: p_edges[r.edgemap[k]] for k, e in n.edgemap.items()})

    glued = set(n.edgemap.values())
    kept = [e for e in gd.src if e not in glued]
    dsrc, dtgt = gd.src, gd.tgt
    src = {h_edges[e]: h_nodes[dsrc[e]] for e in kept}
    tgt = {h_edges[e]: h_nodes[dtgt[e]] for e in kept}
    rsrc, rtgt = gr_.src, gr_.tgt
    src.update({p_edges[d]: p_nodes[rsrc[d]] for d in rsrc})
    tgt.update({p_edges[d]: p_nodes[rtgt[d]] for d in rsrc})
    result = Graph(
        frozenset(h_nodes.values()).union(p_nodes.values()), src, tgt,
        _glued(gd.node_labels, gr_.node_labels, h_nodes, p_nodes),
        _glued(gd.edge_labels, gr_.edge_labels, h_edges, p_edges),
        instance.typegraph,
    )

    h, _ = _checked(instance, n.target, result, h_nodes, h_edges)
    p, _ = _checked(instance, r.target, result, p_nodes, p_edges)
    if compose(h, n) != compose(p, r):
        raise InvariantError("the pushout square does not commute")
    return Pushout(result, h, p)


def _glued(context_labels, rhs_labels, h, p):
    """Labels of the pushout: kept context items keep theirs, glued and
    right-hand-side items take the right-hand side's (the two agree on
    the glued part)."""
    if context_labels is None:
        return None
    out = {h[x]: label for x, label in context_labels.items()}
    out.update({p[y]: label for y, label in rhs_labels.items()})
    return out


# -- morphism enumeration ------------------------------------------------------

class _Host(NamedTuple):
    """A host as the search reads it: sorted node ids, labels, edge ids by
    ``(src, tgt)``, sorted neighbours by node, and degrees."""

    nodes: list
    node_labels: Optional[dict]
    edge_labels: Optional[dict]
    between: dict
    succ: dict
    pred: dict
    out_degree: Counter
    in_degree: Counter


def _host_index(graph: Graph, node_labels, edge_labels) -> _Host:
    """One pass over the host; every search into it reads the result."""
    between = {}
    for d in sorted(graph.src):
        between.setdefault((graph.src[d], graph.tgt[d]), []).append(d)
    succ, pred = {}, {}
    for s, t in sorted(between):
        succ.setdefault(s, []).append(t)
        pred.setdefault(t, []).append(s)
    return _Host(sorted(graph.nodes), node_labels, edge_labels, between, succ, pred,
                 Counter(graph.src.values()), Counter(graph.tgt.values()))


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


def _enumerate(obj_x, obj_y, *, injective: bool, order) -> Iterator[Morphism]:
    """The search from ``obj_x`` into a fresh index of ``obj_y``, built on the
    first ``next``, as morphisms."""
    host = _host_index(obj_y, obj_y.node_labels, obj_y.edge_labels)
    for nodemap, edgemap in _search(host, obj_x, obj_x.node_labels, obj_x.edge_labels,
                                    injective=injective, order=order):
        yield Morphism(obj_x, obj_y, nodemap, edgemap)


def enumerate_morphisms(x, y, instance: CategoryInstance) -> Iterator[Morphism]:
    """All instance-valid morphisms ``x -> y`` in a deterministic order."""
    require_object(x, instance)
    require_object(y, instance)
    return _enumerate(x, y, injective=False, order=instance.leq)


def enumerate_monos(x, y, instance: CategoryInstance) -> Iterator[Morphism]:
    """All admissible monos ``x -> y``: injective and label-preserving."""
    require_object(x, instance)
    require_object(y, instance)
    return _enumerate(x, y, injective=True, order=operator.eq)


def iso_search(x, y, instance: CategoryInstance) -> Optional[Morphism]:
    """An instance-valid isomorphism ``x -> y`` if one exists, else ``None``.

    Deterministic for fixed inputs: the backtracking explores candidates in
    sorted id order and returns the first hit.
    """
    require_object(x, instance)
    require_object(y, instance)
    if len(x.nodes) != len(y.nodes) or len(x.src) != len(y.src):
        return None
    if x.node_labels is not None and Counter(x.node_labels.values()) != Counter(y.node_labels.values()):
        return None
    # With equal node and edge counts every admissible mono is an iso.
    return next(enumerate_monos(x, y, instance), None)


def is_pullback_square(p: Morphism, q: Morphism, f: Morphism, g: Morphism,
                       instance: CategoryInstance) -> bool:
    """Whether the commuting square ``f . p = g . q`` is a pullback.

    Decided by counting fibres, componentwise on nodes and then edges:
    the square is a pullback exactly when the pairs ``(p(u), q(u))`` are
    distinct, there are as many of them as ``X x_Z Y`` has items, and every
    label of ``P`` is the meet of its two images' labels.  Those are the
    conditions for the mediator into the canonical pullback to be an
    isomorphism, so the answer is the same, without building the apex; it
    costs O(|P| + |X| + |Y|).
    """
    for arrow in (p, q, f, g):
        rep = validate_morphism(arrow, instance)
        if not rep.valid:
            raise PreconditionError(f"square contains an invalid morphism: {rep.problems}")
    if p.source != q.source or p.target != f.source or q.target != g.source:
        raise PreconditionError("square arrows do not fit together")
    if compose(f, p) != compose(g, q):
        raise PreconditionError("square does not commute")
    apex, left, right = p.source, f.source, g.source
    return (_fibres_match(p.nodemap, q.nodemap, f.nodemap, g.nodemap, instance.meet,
                          apex.node_labels, left.node_labels, right.node_labels)
            and _fibres_match(p.edgemap, q.edgemap, f.edgemap, g.edgemap, instance.meet,
                              apex.edge_labels, left.edge_labels, right.edge_labels))


def _fibres_match(pmap, qmap, fmap, gmap, meet, own, left, right) -> bool:
    """Whether ``u -> (pmap[u], qmap[u])`` is a bijection onto the pairs
    over equal images that keeps the meet of the pair's labels."""
    ys = list(map(qmap.__getitem__, pmap))
    if len(set(zip(pmap.values(), ys))) != len(pmap):
        return False
    counts = Counter(fmap.values())
    if sum(map(counts.get, gmap.values(), repeat(0))) != len(pmap):
        return False
    if own is None:
        return True
    meets = map(meet, map(left.__getitem__, pmap.values()), map(right.__getitem__, ys))
    return all(map(operator.eq, map(own.__getitem__, pmap), meets))
