"""Concrete finite limit/colimit machinery with canonical naming.

Pullbacks name their elements ``(x,y)`` after the component pair, pushouts
prefix the two summands with ``D:`` and ``R:``.  These schemes are part of
the external contract so serialized outputs are stable and diffable.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse, repeat
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
    admissible mono yields an admissible mono.  Graph pullbacks are
    componentwise, so the projections are valid by construction.

    Each layer is one hash join that writes its final maps: the items of
    the right foot ``Y`` are sorted and bucketed by image, and each sorted
    item of the left foot ``X`` reads its bucket, so the pairs come in the
    lexicographic order of a nested loop over both feet.  The node join
    fills the two projections and a table ``{x: {y: "(x,y)"}}``; the edge
    join fills the two projections and the apex ends, each end read from
    that table, so it is the very string the node set holds.

    A leg whose maps the joins cannot read (an item without an image, an
    edge whose ends are not paired) is refused by name; the legs are
    validated only then, to word the refusal.  That a leg keeps its
    items' labels below their images' is a precondition the joins do not
    read, and a leg that raises a label is not refused.
    """
    if f.target != g.target:
        raise PreconditionError("pullback needs a cospan: the two arrows must share their target")
    require_object(f.source, instance)
    require_object(g.source, instance)
    gx, gy = f.source, g.source

    try:
        fmap, gmap = f.nodemap, g.nodemap
        by_image = {}
        for y in sorted(gy.nodes):
            by_image.setdefault(gmap[y], []).append(y)
        bucket = by_image.get
        node_x, node_y, pair_of = {}, {}, {}
        node_pairs = 0
        for x in sorted(gx.nodes):
            ys = bucket(fmap[x])
            if ys:
                node_pairs += len(ys)
                row = pair_of[x] = {}
                for y in ys:
                    name = row[y] = f"({x},{y})"
                    node_x[name] = x
                    node_y[name] = y

        # An edge pair's ends are the pairs of its components' ends: the
        # rows of its left ends, read at its right ends.
        fmap, gmap, ysrc, ytgt = f.edgemap, g.edgemap, gy.src, gy.tgt
        by_image = {}
        for d in sorted(ysrc):
            by_image.setdefault(gmap[d], []).append((d, ysrc[d], ytgt[d]))
        bucket = by_image.get
        xsrc, xtgt = gx.src, gx.tgt
        edge_x, edge_y, src, tgt = {}, {}, {}, {}
        edge_pairs = 0
        for e in sorted(xsrc):
            ds = bucket(fmap[e])
            if ds:
                edge_pairs += len(ds)
                at_src, at_tgt = pair_of[xsrc[e]], pair_of[xtgt[e]]
                for d, s, t in ds:
                    name = f"({e},{d})"
                    edge_x[name] = e
                    edge_y[name] = d
                    src[name] = at_src[s]
                    tgt[name] = at_tgt[t]
    except KeyError:
        # Only legs that are not valid morphisms get here; say which.
        for name, leg in (("first", f), ("second", g)):
            rep = validate_morphism(leg, instance)
            if not rep.valid:
                raise PreconditionError(f"pullback requires valid legs: the {name} leg is not "
                                        f"a valid morphism: {rep.problems}") from None
        raise
    if len(node_x) != node_pairs or len(edge_x) != edge_pairs:
        raise StructuralError("pair naming collided; source ids embed ambiguous commas")
    apex = Graph(
        # From the keys view, not the dict: a set built from a dict is
        # presized, and would iterate in another order.
        frozenset(node_x.keys()), src, tgt,
        _meets(instance, gx.node_labels, gy.node_labels, node_x, node_y),
        _meets(instance, gx.edge_labels, gy.edge_labels, edge_x, edge_y),
        instance.typegraph,
    )
    return Pullback(apex, Morphism(apex, gx, node_x, edge_x), Morphism(apex, gy, node_y, edge_y), f, g)


def _meets(instance, left, right, xs, ys):
    """The meet labels of the pairs that ``xs`` and ``ys`` project, in
    their order."""
    if left is None:
        return None
    return dict(zip(xs, map(instance.meet, map(left.__getitem__, xs.values()),
                            map(right.__getitem__, ys.values()))))


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
    right-hand-side items enter with an ``R:`` prefix.  The result's ends
    are written in one walk over D's edges, which skips the glued ones,
    and one over R's.  The legs are valid by construction; only the
    commuting square is checked."""
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

    # D's edges that are not glued keep their ends, in one walk over D.
    glued = set(n.edgemap.values())
    dtgt = gd.tgt
    src, tgt = {}, {}
    for e, s in gd.src.items():
        if e not in glued:
            name = h_edges[e]
            src[name] = h_nodes[s]
            tgt[name] = h_nodes[dtgt[e]]
    rsrc, rtgt = gr_.src, gr_.tgt
    src.update({p_edges[d]: p_nodes[rsrc[d]] for d in rsrc})
    tgt.update({p_edges[d]: p_nodes[rtgt[d]] for d in rsrc})
    result = Graph(
        frozenset(h_nodes.values()).union(p_nodes.values()), src, tgt,
        _glued(gd.node_labels, gr_.node_labels, h_nodes, p_nodes),
        _glued(gd.edge_labels, gr_.edge_labels, h_edges, p_edges),
        instance.typegraph,
    )

    h = Morphism(gd, result, h_nodes, h_edges)
    p = Morphism(gr_, result, p_nodes, p_edges)
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


# A slot not filled yet: an image not bound, a fit not built.  Host ids may
# be any hashable and a fit may be ``None``, so neither can mark it.
_UNBOUND = object()


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

    The search is one generator frame over a stack of candidate
    iterators, one level per pattern node, then one per pattern edge.
    Each map is found when it is asked for: a caller that stops reading
    stops the search.
    """
    xs, es = sorted(gx.nodes), sorted(gx.src)
    n, depth = len(xs), len(xs) + len(es)
    yl, ye, between = host.node_labels, host.edge_labels, host.between
    rank = {x: i for i, x in enumerate(xs)}
    ends = [(rank[gx.src[e]], rank[gx.tgt[e]], None if xe is None else xe[e]) for e in es]

    # The plan of each node level, from the pattern alone: the earlier
    # neighbours it draws its candidates from, as (rank, host adjacency to
    # read at that rank's image), and the edges it closes, as (src rank,
    # tgt rank, label).  A sole anchor's adjacency holds every unlabelled
    # edge between it and the level, so those need no check.
    anchors = [{} for _ in xs]
    checks = [[] for _ in xs]
    for s, t, label in ends:
        later, earlier, adjacency = (t, s, host.succ) if t >= s else (s, t, host.pred)
        if (s, t, label) not in checks[later]:
            checks[later].append((s, t, label))
        if earlier != later:
            anchors[later][earlier, t >= s] = earlier, adjacency
    anchors = [list(near.values()) for near in anchors]
    for near, closed in zip(anchors, checks):
        if len(near) == 1:
            closed[:] = [(s, t, label) for s, t, label in closed if label is not None or s == t]
    if injective:
        out_x, in_x = Counter(gx.src.values()), Counter(gx.tgt.values())
        out_y, in_y = host.out_degree, host.in_degree

    def fitting(x):
        """The sorted host nodes ``x`` fits by label and, for monos, by
        degree; the host's own list if that is all of them."""
        ys = host.nodes
        if xl is not None:
            label = xl[x]
            ys = [y for y in ys if order(label, yl[y])]
        if injective and out_x[x]:
            ys = [y for y in ys if out_y[y] >= out_x[x]]
        if injective and in_x[x]:
            ys = [y for y in ys if in_y[y] >= in_x[x]]
        return ys

    # A node level's fit, built when the level is first reached: the
    # sorted free list of an unanchored node, the set of an anchored one
    # (``None`` if every host node fits).
    fits = [_UNBOUND] * n
    images, edge_images = [_UNBOUND] * n, [_UNBOUND] * len(es)
    used, used_edges = set(), set()
    if not depth:
        yield {}, {}
        return
    # The candidate iterator of each level, made on entry under the images
    # of the levels before it; ``None`` once the level is left exhausted.
    stack = [None] * depth
    level, last = 0, depth - 1
    while level >= 0:
        found = stack[level]
        if level < n:
            if found is None:
                near, fit = anchors[level], fits[level]
                if fit is _UNBOUND:
                    fit = fitting(xs[level])
                    if near:
                        fit = None if fit is host.nodes else frozenset(fit)
                    fits[level] = fit
                if not near:
                    found = iter(fit)
                else:
                    ys = (near[0][1].get(images[near[0][0]], ()) if len(near) == 1 else
                          min((adjacency.get(images[u], ()) for u, adjacency in near), key=len))
                    found = iter(ys) if fit is None else filter(fit.__contains__, ys)
                if injective:
                    found = filterfalse(used.__contains__, found)
                stack[level] = found
            elif injective:
                used.discard(images[level])
            for y in found:
                images[level] = y
                for s, t, label in checks[level]:
                    ds = between.get((images[s], images[t]))
                    if not ds or (label is not None
                                  and not any(map(order, repeat(label), map(ye.__getitem__, ds)))):
                        break
                else:
                    break
            else:
                stack[level] = None
                level -= 1
                continue
            if injective:
                used.add(y)
        else:
            j = level - n
            s, t, label = ends[j]
            if found is None:
                ds = between.get((images[s], images[t]), ())
                found = stack[level] = filterfalse(used_edges.__contains__, ds) if injective else iter(ds)
            elif injective:
                used_edges.discard(edge_images[j])
            for d in found:
                if label is None or order(label, ye[d]):
                    break
            else:
                stack[level] = None
                level -= 1
                continue
            edge_images[j] = d
            if injective:
                used_edges.add(d)
        if level == last:
            yield dict(zip(xs, images)), dict(zip(es, edge_images))
        else:
            level += 1


def _enumerate(obj_x, obj_y, *, injective: bool, order) -> Iterator[Morphism]:
    """The search from ``obj_x`` into a fresh index of ``obj_y``, built on the
    first ``next``, as morphisms."""
    host = _host_index(obj_y, obj_y.node_labels, obj_y.edge_labels)
    for nodemap, edgemap in _search(host, obj_x, obj_x.node_labels, obj_x.edge_labels,
                                    injective=injective, order=order):
        yield Morphism(obj_x, obj_y, nodemap, edgemap)


def enumerate_morphisms(x, y, instance: CategoryInstance) -> Iterator[Morphism]:
    """All instance-valid morphisms ``x -> y`` in a deterministic order.

    Lazy: each morphism is found when it is read, so a caller that stops
    reading stops the search there.
    """
    require_object(x, instance)
    require_object(y, instance)
    return _enumerate(x, y, injective=False, order=instance.leq)


def enumerate_monos(x, y, instance: CategoryInstance) -> Iterator[Morphism]:
    """All admissible monos ``x -> y``: injective and label-preserving.

    Lazy: each mono is found when it is read, so a caller that stops
    reading stops the search there; ``agree apply --match-index k``
    searches only as far as the k-th match.
    """
    require_object(x, instance)
    require_object(y, instance)
    return _enumerate(x, y, injective=True, order=operator.eq)


def iso_search(x, y, instance: CategoryInstance) -> Optional[Morphism]:
    """An instance-valid isomorphism ``x -> y`` if one exists, else ``None``.

    Deterministic for fixed inputs: the backtracking explores candidates in
    sorted id order and returns the first hit, where the search stops;
    objects with many isos (a k-edge parallel bundle has k!) cost no more
    than the path to the first.
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
    return _is_pullback_by_fibres(p, q, f, g, instance)


def _is_pullback_by_fibres(p: Morphism, q: Morphism, f: Morphism, g: Morphism,
                           instance: CategoryInstance) -> bool:
    """:func:`is_pullback_square` for four arrows known to be valid: checks
    that they fit and commute, then counts fibres."""
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
