"""Match enumeration and rewrite steps with controlled embedding.

A rule is a span ``L <-l- K -r-> R`` plus an embedding mono ``t: K >-> TK``
that decides which context connections preserved or cloned items keep.
A step first pulls the match's classifying arrow back against the
embedding's classifying arrow (building the context object ``D``), then
pushes out along the right-hand side.  Special modes: ``SQPO`` uses the
full enlargement of ``K`` as embedding, ``PSQPO`` derives the embedding
from a polarity on ``K`` so that clones keep only edges in the directions
their polarity allows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations_with_replacement, compress, permutations, product
from math import prod
from typing import Optional

from .catops import (
    Pullback,
    _host_index,
    _is_pullback_by_fibres,
    _search,
    enumerate_monos,
    is_pullback_square,
    pullback,
    pullback_mediator,
    pushout_along_mono,
)
from .classifier import bar, phi, t_object
from .core import (
    GR,
    GRPOL,
    CategoryInstance,
    Graph,
    Morphism,
    PolarizedGraph,
    belongs,
    compose,
    identity,
    pol_forget,
    pol_induce,
    validate_morphism,
)
from .errors import InvariantError, PreconditionError, RuleError

__all__ = [
    "Rule",
    "RewriteTrace",
    "Fpbc",
    "FpbcReport",
    "agree_rule",
    "sqpo_rule",
    "psqpo_rule",
    "enumerate_matches",
    "agree_step",
    "fpbc",
    "fpbc_verify",
    "psqpo_step",
    "strict_complement",
    "complement_of_square",
    "is_local_rule",
    "is_local_step",
]


@dataclass(frozen=True)
class Rule:
    """A span plus embedding; ``mode`` is ``AGREE``, ``SQPO`` or ``PSQPO``."""

    l: Morphism
    r: Morphism
    t: Morphism
    mode: str
    nplus: Optional[frozenset] = None
    nminus: Optional[frozenset] = None

    @property
    def lhs(self):
        return self.l.target

    @property
    def interface(self):
        return self.l.source

    @property
    def rhs(self):
        return self.r.target


def _check_span(l: Morphism, r: Morphism, t: Morphism, instance: CategoryInstance):
    if l.source != r.source or l.source != t.source:
        raise RuleError("rule arrows must share their source")
    for name, arrow in (("l", l), ("r", r)):
        rep = validate_morphism(arrow, instance)
        if not rep.valid:
            raise RuleError(f"rule arrow {name} is not a valid morphism: {rep.problems}")
    if not validate_morphism(t, instance).is_mono_in_M:
        raise RuleError("rule embedding must be an admissible mono")


def agree_rule(l: Morphism, r: Morphism, t: Morphism, instance: CategoryInstance) -> Rule:
    """A general rule with an explicit embedding."""
    _check_span(l, r, t, instance)
    return Rule(l, r, t, "AGREE")


def sqpo_rule(l: Morphism, r: Morphism, instance: CategoryInstance) -> Rule:
    """A span rule whose embedding is the unit at the interface (materialized now)."""
    t = t_object(l.source, instance).unit
    _check_span(l, r, t, instance)
    return Rule(l, r, t, "SQPO")


def psqpo_rule(l: Morphism, r: Morphism, nplus, nminus) -> Rule:
    """A plain-graph span rule with a polarity on the interface.

    The embedding is materialized as the underlying arrow of the polarized
    unit, so the rule can also be executed directly as an ``AGREE`` rule.
    """
    k = l.source
    if not belongs(k, GR):
        raise RuleError("polarized rules live over plain graphs")
    khat = PolarizedGraph(k, frozenset(nplus), frozenset(nminus))
    t = pol_forget(t_object(khat, GRPOL).unit)
    _check_span(l, r, t, GR)
    return Rule(l, r, t, "PSQPO", frozenset(nplus), frozenset(nminus))


@dataclass(frozen=True)
class RewriteTrace:
    """Exactly the objects and arrows ``io.trace_doc`` writes of a step:
    the rule, the match, D, H and the arrows of the paper's diagram.  A
    PSQPO step's trace has the same shape, with polarity dropped."""

    rule: Rule
    match: Morphism
    l_prime: Morphism   # TK -> T(L)
    m_bar: Morphism     # G  -> T(L)
    context: object     # D
    g: Morphism         # D -> G
    n_prime: Morphism   # D -> TK
    n: Morphism         # K -> D
    result: object      # H
    h: Morphism         # D -> H
    p: Morphism         # R -> H


def enumerate_matches(lhs, g, instance: CategoryInstance):
    """All admissible monos from the left-hand side into ``g``, in
    lexicographic order of the assignments over sorted ids."""
    return list(enumerate_monos(lhs, g, instance))


def _require_match(rule: Rule, m: Morphism, instance: CategoryInstance):
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("matches must be admissible monos")
    if m.source != rule.lhs:
        raise PreconditionError("match must start at the rule's left-hand side")


def _first_phase(l: Morphism, t: Morphism, m: Morphism, instance: CategoryInstance) -> tuple:
    """A step's first phase for ``K -l-> L -m-> G`` and the embedding
    ``t``: the pullback of ``bar(m)`` against ``phi(t, l)``, whose apex is
    the context D, and the mediator ``n: K -> D`` of the cone
    ``(m . l, t)``."""
    pb = pullback(bar(m, instance), phi(t, l, instance), instance)
    return pb, pullback_mediator(pb, compose(m, l), t)


def agree_step(rule: Rule, m: Morphism, instance: CategoryInstance) -> RewriteTrace:
    """One rewrite step at a match: classify, pull back, push out."""
    if instance.kind == "grpol":
        raise PreconditionError("polarized rewriting goes through psqpo_step")
    if not validate_morphism(rule.t, instance).is_mono_in_M:
        raise RuleError("rule embedding must be an admissible mono in this instance")
    _require_match(rule, m, instance)

    pb, n = _first_phase(rule.l, rule.t, m, instance)
    return _second_phase(rule, m, pb, n, instance)


def _second_phase(rule: Rule, m: Morphism, pb: Pullback, n: Morphism, instance: CategoryInstance) -> RewriteTrace:
    """A step's second phase, after the first phase built the pullback
    ``pb`` of ``bar(m)`` against ``phi(t, l)`` and the mediator ``n``: the
    pushout of ``n`` along ``rule.r`` and the step's trace.  It checks the
    two facts that no construction checks: the mediator factors the
    embedding, and the left square is a pullback.  The square's arrows are
    valid already: ``phi`` checked ``l`` (a PSQPO step's ``phi`` checked
    ``l̂``, which has ``l``'s maps), the step checked ``m``,
    ``pushout_along_mono`` checked ``n``, and ``g`` is a projection of the
    pullback.  So the square is not validated again: only its fit, its
    commuting and its fibres are checked."""
    po = pushout_along_mono(n, rule.r, instance)
    trace = RewriteTrace(rule, m, pb.g, pb.f, pb.apex, pb.p1, pb.p2, n, po.result, po.h, po.p)
    if compose(trace.n_prime, n) != rule.t:
        raise InvariantError("the mediator does not factor the embedding: n' . n != t")
    if not _is_pullback_by_fibres(rule.l, n, m, trace.g, instance):
        raise InvariantError("the step's left square is not a pullback")
    return trace


@dataclass(frozen=True)
class Fpbc:
    """A final pullback complement ``(n, a)``: ``K -n-> D -a-> G``, with
    D as its ``context``."""

    n: Morphism
    a: Morphism

    @property
    def context(self):
        return self.n.target


def fpbc(l: Morphism, m: Morphism, instance: CategoryInstance) -> Fpbc:
    """Final pullback complement of ``K -l-> L -m-> G`` for an admissible mono ``m``,
    built by pulling the functorial enlargement of ``l`` back along the
    classifying arrow of ``m``: a step's first phase with the unit at ``K``
    as embedding."""
    pb, n = _fpbc_phase(l, m, instance)
    return Fpbc(n, pb.p1)


def _fpbc_phase(l: Morphism, m: Morphism, instance: CategoryInstance) -> tuple:
    """:func:`fpbc`'s pullback, whose foot ``pb.g`` is ``T(l)``, and ``n``."""
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("final pullback complements need an admissible mono match")
    if l.target != m.source:
        raise PreconditionError("arrows do not compose: l must end where m starts")
    pb, n = _first_phase(l, t_object(l.source, instance).unit, m, instance)
    if not validate_morphism(n, instance).is_mono_in_M:
        raise InvariantError("the complement's embedding of K is not an admissible mono")
    return pb, n


@dataclass(frozen=True)
class FpbcReport:
    ok: bool
    bound: tuple
    cones_checked: int
    counterexample: Optional[dict] = None


def _connected(num_nodes: int, edge_pairs) -> bool:
    if num_nodes <= 1:
        return True
    parent = list(range(num_nodes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    merged = 0
    for i, j in edge_pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            merged += 1
    return merged == num_nodes - 1


def _fiber_vectors(num_fibers: int, total_bound: int):
    if num_fibers == 0:
        if total_bound >= 0:
            yield ()
        return
    for first in range(total_bound + 1):
        for rest in _fiber_vectors(num_fibers - 1, total_bound - first):
            yield (first,) + rest


def fpbc_verify(l: Morphism, m: Morphism, n: Morphism, a: Morphism,
                instance: CategoryInstance, size_bound=None) -> FpbcReport:
    """Bounded finality oracle for a candidate pullback complement.

    Checks that the square is a pullback and that every competing pullback
    square over ``m`` whose complement object fits the bound factors
    uniquely through ``(n, a)``.  The bound is a ``(nodes, edges)`` pair and
    defaults to one more than the candidate's own node and edge counts; an
    int bounds both.  Cones split over connected components (the factoring
    arrow is chosen independently per component), so only connected
    competitors are enumerated, exhausting all competitors within the bound
    up to isomorphism.

    A competitor ``C -> G`` is a number of copies of each node of G, edges
    between copies over edges of G, and per copy a label below its
    image's.  Copies over one node are interchangeable, so only the
    competitor whose edge slots are least in its orbit under their
    permutations is checked; ``cones_checked`` counts every competitor and
    labelling up to the first failure, which is always least in its orbit.
    """
    if compose(m, l) != compose(a, n):
        raise PreconditionError("candidate complement square does not commute")
    gd = n.target
    if size_bound is None:
        size_bound = (len(gd.nodes) + 1, len(gd.src) + 1)
    elif isinstance(size_bound, int):
        size_bound = (size_bound, size_bound)
    bound = _size_pair(size_bound)
    node_bound, edge_bound = bound

    if not is_pullback_square(l, n, m, a, instance):
        return FpbcReport(False, bound, 0, {"reason": "square is not a pullback"})

    gg = m.target
    gnodes = sorted(gg.nodes)
    gedges = sorted(gg.src)
    check = _factoring_check(m, n, a, instance)
    label_choices = _label_choices(gg, instance)
    cones = 0

    for sizes in _fiber_vectors(len(gnodes), node_bound):
        total_nodes = sum(sizes)
        if total_nodes == 0:
            continue
        copies = [(x, i) for x, count in zip(gnodes, sizes) for i in range(count)]
        node_of = {copy: cid for cid, copy in enumerate(copies)}
        size_of = dict(zip(gnodes, sizes))
        slots = [(ge, node_of[gg.src[ge], i], node_of[gg.tgt[ge], j])
                 for ge in gedges
                 for i in range(size_of[gg.src[ge]])
                 for j in range(size_of[gg.tgt[ge]])]
        symmetries = _slot_permutations(copies, slots)
        min_edges = max(0, total_nodes - 1)
        for num_edges in range(min_edges, edge_bound + 1):
            for combo in combinations_with_replacement(range(len(slots)), num_edges):
                edges = [slots[i] for i in combo]
                if not _connected(total_nodes, ((s, t) for _, s, t in edges)):
                    continue
                choices = label_choices(copies, edges)
                ordered = list(combo)
                if any(sorted(map(table.__getitem__, combo)) < ordered for table in symmetries):
                    cones += prod(map(len, choices))
                    continue
                for labels in product(*choices):
                    cones += 1
                    witness = check(copies, edges, labels)
                    if witness is not None:
                        return FpbcReport(False, bound, cones, witness)
    return FpbcReport(True, bound, cones)


def _size_pair(size_bound) -> tuple:
    """A ``(nodes, edges)`` bound: a list or tuple of two non-negative ints."""
    if not (isinstance(size_bound, (tuple, list)) and len(size_bound) == 2
            and all(isinstance(b, int) for b in size_bound)):
        raise PreconditionError(f"a size bound is an integer or a (nodes, edges) pair of integers, got {size_bound!r}")
    bound = tuple(map(int, size_bound))
    if min(bound) < 0:
        raise PreconditionError(f"size bounds must not be negative, got {bound}")
    return bound


def _slot_permutations(copies, slots) -> list:
    """Per permutation of the copies inside each fibre, other than the
    identity, the slot index each slot moves to."""
    fibres = {}
    for cid, (x, _) in enumerate(copies):
        fibres.setdefault(x, []).append(cid)
    slot_of = {slot: i for i, slot in enumerate(slots)}
    tables = []
    for images in product(*map(permutations, fibres.values())):
        sigma = list(chain.from_iterable(images))
        if sigma != sorted(sigma):
            tables.append([slot_of[ge, sigma[s], sigma[t]] for ge, s, t in slots])
    return tables


def _label_choices(g_obj, instance: CategoryInstance):
    """``choices(copies, edges)``: per copy, the labels below its image's
    that its edges allow, in the order of ``instance.below``."""
    labels, edge_labels = g_obj.node_labels, g_obj.edge_labels
    between, tops = instance.edge_labels_between, instance.stars.values()

    @cache
    def allowed(x, leaving, entering):
        return [c for c in instance.below(None if labels is None else labels[x])
                if all(any(e in between(c, top) for top in tops) for e in leaving)
                and all(any(e in between(top, c) for top in tops) for e in entering)]

    def choices(copies, edges):
        leaving = [set() for _ in copies]
        entering = [set() for _ in copies]
        for ge, s, t in edges:
            label = None if edge_labels is None else edge_labels[ge]
            leaving[s].add(label)
            entering[t].add(label)
        return [allowed(x, frozenset(leaves), frozenset(enters))
                for (x, _), leaves, enters in zip(copies, leaving, entering)]

    return choices


def _factoring_check(m: Morphism, n: Morphism, a: Morphism, instance: CategoryInstance):
    """``check(copies, edges, labels)`` for competitors over ``G``: a witness
    that the competitor does not factor uniquely through ``(n, a)``, or
    ``None``.

    A copy ``(x, i)`` is the i-th copy over G's node ``x``, an edge
    ``(G edge, src copy, tgt copy)``.  D and the competitor are searched
    as slices over G: every item is labelled ``(image in G, own label)``.
    The cone is final iff restricting to the competitor's part P over the
    image of ``m`` is a bijection from the arrows C -> D over G onto the
    lifts P -> D over G; the lifts land in n(K), the square being a
    pullback.  The witness names the first lift, in the order of its K ids,
    whose count is not 1; a count of 2 means two or more.
    """
    gd = n.target
    host = _host_index(gd, _over(gd.nodes, a.nodemap, gd.node_labels),
                       _over(gd.src, a.edgemap, gd.edge_labels))
    leq = instance.leq

    def order(p, q):
        return p[0] == q[0] and (p[1] is None or leq(p[1], q[1]))

    matched_nodes = set(m.nodemap.values())
    matched_edges = set(m.edgemap.values())
    k_node = {y: k for k, y in n.nodemap.items()}
    k_edge = {d: k for k, d in n.edgemap.items()}
    g_edge_labels = m.target.edge_labels

    def check(copies, edges, labels):
        node_labels = {cid: (x, label) for cid, ((x, _), label) in enumerate(zip(copies, labels))}
        edge_labels = {ei: (ge, None if g_edge_labels is None else g_edge_labels[ge])
                       for ei, (ge, _, _) in enumerate(edges)}
        competitor = Graph(frozenset(node_labels), {ei: s for ei, (_, s, _) in enumerate(edges)},
                           {ei: t for ei, (_, _, t) in enumerate(edges)})
        p_nodes = [cid for cid, (x, _) in enumerate(copies) if x in matched_nodes]
        p_edges = [ei for ei, (ge, _, _) in enumerate(edges) if ge in matched_edges]
        if len(p_nodes) == len(copies) and len(p_edges) == len(edges):
            return None  # the competitor is its own part P: restriction is the identity
        part = Graph(frozenset(p_nodes), {ei: competitor.src[ei] for ei in p_edges},
                     {ei: competitor.tgt[ei] for ei in p_edges})

        def restrict(nodemap, edgemap):
            return tuple(nodemap[cid] for cid in p_nodes), tuple(edgemap[ei] for ei in p_edges)

        def search(pattern):
            return (restrict(*maps) for maps in
                    _search(host, pattern, node_labels, edge_labels, injective=False, order=order))

        lifts = list(search(part))
        counts = Counter(search(competitor))
        if len(counts) == len(lifts) and all(count == 1 for count in counts.values()):
            return None
        lift = next(lift for lift in sorted(lifts, key=lambda lift: (
            [k_node[y] for y in lift[0]], [k_edge[d] for d in lift[1]])) if counts[lift] != 1)
        name = [f"{x}/{i}" for x, i in copies]
        return {
            "reason": "factoring arrow not unique" if counts[lift] else "no factoring arrow",
            "competitor_nodes": dict(zip(name, (x for x, _ in copies))),
            "competitor_edges": [{"over": ge, "src": name[s], "tgt": name[t]} for ge, s, t in edges],
            "lift": {name[cid]: k_node[y] for cid, y in zip(p_nodes, lift[0])},
            "count": min(counts[lift], 2),
        }

    return check


def _over(items, image, own) -> dict:
    """Slice labels: ``(image, own label)`` per item, the own label ``None``
    where the setting leaves the items unlabelled."""
    return {x: (image[x], None if own is None else own[x]) for x in items}


def psqpo_step(rule: Rule, m: Morphism) -> RewriteTrace:
    """One polarized-cloning step: the first phase runs over polarized
    graphs, the pushout over plain graphs.  ``agree apply`` runs a PSQPO
    rule through :func:`agree_step` on the embedding :func:`psqpo_rule`
    materialized; the ``PSQPO_AGREE`` law checks that the two agree."""
    if rule.mode != "PSQPO":
        raise RuleError("psqpo_step needs a rule in PSQPO mode")
    if rule.nplus is None or rule.nminus is None:
        raise RuleError("polarized rules must carry a polarity on the interface")
    _require_match(rule, m, GR)

    khat = PolarizedGraph(rule.interface, rule.nplus, rule.nminus)
    lhat = Morphism(khat, pol_induce(rule.lhs), rule.l.nodemap, rule.l.edgemap)
    mhat = pol_induce(m)
    pb, nhat = _fpbc_phase(lhat, mhat, GRPOL)
    # The square with polarity dropped; its foot pb.f is bar(m, GR).
    pb = Pullback(*map(pol_forget, (pb.apex, pb.p1, pb.p2, pb.f, pb.g)))
    return _second_phase(rule, m, pb, pol_forget(nhat), GR)


def strict_complement(m: Morphism, instance: CategoryInstance):
    """The largest subobject of the match target disjoint from the image:
    the paper's pullback of the characteristic arrow of ``m`` against the
    ``false`` point, computed directly.  The tests check it against that
    pullback under the renaming ``(x,y)`` -> ``x``."""
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("strict complements are taken of admissible monos")
    return _strict_complement(m, instance)


def _strict_complement(m: Morphism, instance: CategoryInstance):
    """:func:`strict_complement` of a known admissible mono: the target
    without the image's nodes and every edge with an end among them."""
    g = m.target
    hit = set(m.nodemap.values())
    nodes = g.nodes - hit
    cut = {e for ends in (g.src, g.tgt) for e in compress(ends, map(hit.__contains__, ends.values()))}
    src, tgt = _without(g.src, cut), _without(g.tgt, cut)
    comp = Graph(nodes, src, tgt, _without(g.node_labels, hit), _without(g.edge_labels, cut), instance.typegraph)
    return comp, Morphism(comp, g, dict(zip(nodes, nodes)), dict(zip(src, src)))


def _without(column, keys):
    """A copy of ``column`` without ``keys``; ``None`` stays ``None``."""
    if column is not None:
        column = dict(column)
        for key in keys:
            del column[key]
    return column


def complement_of_square(n: Morphism, l: Morphism, m: Morphism, g: Morphism,
                         instance: CategoryInstance) -> Morphism:
    """Restrict ``g`` to the strict complements of a pullback square.

    Given a pullback square with vertical admissible monos ``n: K >-> D``
    and ``m: L >-> G`` over ``l: K -> L`` and ``g: D -> G``, the restriction
    is the unique arrow between the complements, and the restricted square
    is again a pullback: an item of D lies over the image of ``m`` exactly
    when it is in the image of ``n``, and ``g`` is monotone.  So only the
    given square and ``m`` are checked: ``n`` is an admissible mono when
    ``m`` is, as its pullback."""
    if not is_pullback_square(l, n, m, g, instance):
        raise PreconditionError("complement_of_square needs a pullback square")
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("strict complements are taken of admissible monos")
    (comp_d, _), (comp_g, _) = _strict_complement(n, instance), _strict_complement(m, instance)
    nodes, edges = comp_d.nodes, comp_d.src
    return Morphism(comp_d, comp_g, dict(zip(nodes, map(g.nodemap.__getitem__, nodes))),
                    dict(zip(edges, map(g.edgemap.__getitem__, edges))))


def is_local_rule(rule: Rule, instance: CategoryInstance) -> bool:
    """Whether the embedding only rearranges the star part up to iso, so the
    untouched context always survives a step unchanged."""
    k = rule.interface
    tbar = bar(rule.t, instance)
    unit = t_object(k, instance).unit
    arrow = complement_of_square(rule.t, identity(k), unit, tbar, instance)
    return validate_morphism(arrow, instance).is_iso


def is_local_step(trace: RewriteTrace, instance: CategoryInstance) -> bool:
    """Whether the step restricted to an isomorphism between the strict
    complements of interface and left-hand side."""
    arrow = complement_of_square(trace.n, trace.rule.l, trace.match, trace.g, instance)
    return validate_morphism(arrow, instance).is_iso
