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

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Optional

from .catops import (
    enumerate_monos,
    is_pullback_square,
    pullback,
    pullback_mediator,
    pushout_along_mono,
)
from .classifier import bar, characteristic, phi, t_morphism, t_object
from .core import (
    GR,
    GRPOL,
    CategoryInstance,
    Graph,
    Morphism,
    PolarizedGraph,
    carrier,
    compose,
    identity,
    pol_forget,
    pol_induce,
    validate_morphism,
)
from .errors import PreconditionError, RuleError

__all__ = [
    "Rule",
    "RewriteTrace",
    "PolarizedPhase",
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
    if not isinstance(k, Graph):
        raise RuleError("polarized rules live over plain graphs")
    khat = PolarizedGraph(k, frozenset(nplus), frozenset(nminus))
    t = pol_forget(t_object(khat, GRPOL).unit)
    _check_span(l, r, t, GR)
    return Rule(l, r, t, "PSQPO", frozenset(nplus), frozenset(nminus))


@dataclass(frozen=True)
class PolarizedPhase:
    """The polarized first phase of a PSQPO step, before polarity is dropped."""

    khat: PolarizedGraph
    lhat: Morphism
    mhat: Morphism
    n: Morphism
    a: Morphism
    n_prime: Morphism


@dataclass(frozen=True)
class RewriteTrace:
    """Everything a rewrite step constructs, for inspection and replay."""

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
    polarized: Optional[PolarizedPhase] = None


def enumerate_matches(lhs, g, instance: CategoryInstance):
    """All admissible monos from the left-hand side into ``g``, in
    lexicographic order of the assignments over sorted ids."""
    return list(enumerate_monos(lhs, g, instance))


def _require_match(rule: Rule, m: Morphism, instance: CategoryInstance):
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("matches must be admissible monos")
    if m.source != rule.lhs:
        raise PreconditionError("match must start at the rule's left-hand side")


def _assert_trace(trace: RewriteTrace, instance: CategoryInstance):
    assert compose(trace.n_prime, trace.n) == trace.rule.t
    assert compose(trace.g, trace.n) == compose(trace.match, trace.rule.l)
    assert validate_morphism(trace.n, instance).is_mono_in_M
    assert is_pullback_square(trace.rule.l, trace.n, trace.match, trace.g, instance)
    assert compose(trace.h, trace.n) == compose(trace.p, trace.rule.r)


def agree_step(rule: Rule, m: Morphism, instance: CategoryInstance) -> RewriteTrace:
    """One rewrite step at a match: classify, pull back, push out."""
    if instance.kind == "grpol":
        raise PreconditionError("polarized rewriting goes through psqpo_step")
    if not validate_morphism(rule.t, instance).is_mono_in_M:
        raise RuleError("rule embedding must be an admissible mono in this instance")
    _require_match(rule, m, instance)

    l_prime = phi(rule.t, rule.l, instance)
    m_bar = bar(m, instance)
    pb = pullback(m_bar, l_prime, instance)
    n = pullback_mediator(pb, compose(m, rule.l), rule.t)
    po = pushout_along_mono(n, rule.r, instance)
    trace = RewriteTrace(rule, m, l_prime, m_bar, pb.apex, pb.p1, pb.p2, n,
                         po.result, po.h, po.p)
    _assert_trace(trace, instance)
    return trace


@dataclass(frozen=True)
class Fpbc:
    """A final pullback complement: ``K -n-> D -a-> G``."""

    n: Morphism
    a: Morphism
    n_prime: Morphism  # D -> T(K)

    @property
    def context(self):
        return self.n.target


def fpbc(l: Morphism, m: Morphism, instance: CategoryInstance) -> Fpbc:
    """Final pullback complement of ``K -l-> L -m-> G`` for an admissible mono ``m``,
    built by pulling the functorial enlargement of ``l`` back along the
    classifying arrow of ``m``."""
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("final pullback complements need an admissible mono match")
    if l.target != m.source:
        raise PreconditionError("arrows do not compose: l must end where m starts")
    pb = pullback(bar(m, instance), t_morphism(l, instance), instance)
    unit_k = t_object(l.source, instance).unit
    n = pullback_mediator(pb, compose(m, l), unit_k)
    assert validate_morphism(n, instance).is_mono_in_M
    return Fpbc(n, pb.p1, pb.p2)


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
    """
    if compose(m, l) != compose(a, n):
        raise PreconditionError("candidate complement square does not commute")
    d_obj = n.target
    gd = carrier(d_obj)
    if size_bound is None:
        bound = (len(gd.nodes) + 1, len(gd.src) + 1)
    elif isinstance(size_bound, int):
        bound = (size_bound, size_bound)
    else:
        bound = (int(size_bound[0]), int(size_bound[1]))
    node_bound, edge_bound = bound

    if not is_pullback_square(l, n, m, a, instance):
        return FpbcReport(False, bound, 0, {"reason": "square is not a pullback"})

    g_obj = m.target
    gg = carrier(g_obj)
    k_obj = l.source
    gk = carrier(k_obj)
    gl = carrier(m.source)

    inv_m_nodes = {v: k for k, v in m.nodemap.items()}
    inv_m_edges = {v: k for k, v in m.edgemap.items()}
    lfib_nodes = {w: sorted(k for k in gk.nodes if l.nodemap[k] == w) for w in gl.nodes}
    lfib_edges = {c: sorted(e for e in gk.src if l.edgemap[e] == c) for c in gl.src}
    afib_nodes = {x: sorted(y for y in gd.nodes if a.nodemap[y] == x) for x in gg.nodes}
    afib_edges = {x: sorted(e for e in gd.src if a.edgemap[e] == x) for x in gg.src}

    polarized = instance.kind == "grpol"
    gnodes = sorted(gg.nodes)
    gedges = sorted(gg.src)
    cones = 0

    for sizes in _fiber_vectors(len(gnodes), node_bound):
        total_nodes = sum(sizes)
        if total_nodes == 0:
            continue
        copies = []
        node_of = {}
        f_node = {}
        for x, count in zip(gnodes, sizes):
            for i in range(count):
                cid = len(copies)
                copies.append((x, i))
                node_of[(x, i)] = cid
                f_node[cid] = x
        slots = []
        for ge in gedges:
            sx, tx = gg.src[ge], gg.tgt[ge]
            for i in range(sizes[gnodes.index(sx)]):
                for j in range(sizes[gnodes.index(tx)]):
                    slots.append((ge, node_of[(sx, i)], node_of[(tx, j)]))
        min_edges = max(0, total_nodes - 1)
        for num_edges in range(min_edges, edge_bound + 1):
            for combo in combinations_with_replacement(range(len(slots)), num_edges):
                edges = [slots[i] for i in combo]
                if not _connected(total_nodes, ((s, t) for _, s, t in edges)):
                    continue
                if polarized:
                    variants = _polarized_variants(copies, edges, f_node, g_obj)
                else:
                    variants = [None]
                for pol in variants:
                    cones += 1
                    witness = _check_cone(
                        copies, edges, f_node, pol,
                        inv_m_nodes, inv_m_edges, lfib_nodes, lfib_edges,
                        afib_nodes, afib_edges, m, n, k_obj, d_obj, gd,
                    )
                    if witness is not None:
                        return FpbcReport(False, bound, cones, witness)
    return FpbcReport(True, bound, cones)


# Capability sets in the order the oracle tries them.
_CAPABILITY_SETS = (frozenset(), frozenset("-"), frozenset("+"), frozenset("+-"))


def _polarized_variants(copies, edges, f_node, g_obj):
    """Every polarity of the competitor's nodes that its edges allow and
    that stays below the polarity of the node's image in G."""
    need = [set() for _ in copies]
    for _, s, t in edges:
        need[s].add("+")
        need[t].add("-")
    labels = g_obj.node_labels
    return [list(v) for v in product(*(
        [caps for caps in _CAPABILITY_SETS if need[cid] <= caps <= labels[f_node[cid]]]
        for cid in range(len(copies))
    ))]


def _check_cone(copies, edges, f_node, pol,
                inv_m_nodes, inv_m_edges, lfib_nodes, lfib_edges,
                afib_nodes, afib_edges, m, n, k_obj, d_obj, gd):
    """Check existence of exactly one factoring arrow for every lifting of the
    competitor's pullback part; returns a witness dict on failure."""
    num = len(copies)
    f_edge = {ei: ge for ei, (ge, _, _) in enumerate(edges)}
    ends = {ei: (s, t) for ei, (ge, s, t) in enumerate(edges)}

    # The competitor's pullback along m is its preimage part (m is mono).
    kp_nodes = [cid for cid in range(num) if f_node[cid] in inv_m_nodes]
    kp_edges = [ei for ei in range(len(edges)) if f_edge[ei] in inv_m_edges]
    d_node = {cid: inv_m_nodes[f_node[cid]] for cid in kp_nodes}
    d_edge = {ei: inv_m_edges[f_edge[ei]] for ei in kp_edges}

    gk = carrier(k_obj)
    # With m strict, the pullback polarity on the preimage part coincides
    # with the competitor's own polarity; keep the meet anyway.
    if pol is not None:
        k_pol = {cid: pol[cid] & m.source.node_labels[d_node[cid]] for cid in kp_nodes}

    def h_node_candidates(cid):
        return [k for k in lfib_nodes[d_node[cid]] if pol is None or k_pol[cid] <= k_obj.node_labels[k]]

    def enumerate_h():
        items = list(kp_nodes) + [("e", ei) for ei in kp_edges]

        def rec(i, hn, he):
            if i == len(items):
                yield dict(hn), dict(he)
                return
            it = items[i]
            if isinstance(it, tuple) and it[0] == "e":
                ei = it[1]
                s, t = ends[ei]
                for ke in lfib_edges[d_edge[ei]]:
                    if gk.src[ke] == hn[s] and gk.tgt[ke] == hn[t]:
                        he[ei] = ke
                        yield from rec(i + 1, hn, he)
                        del he[ei]
            else:
                for k in h_node_candidates(it):
                    hn[it] = k
                    yield from rec(i + 1, hn, he)
                    del hn[it]

        yield from rec(0, {}, {})

    kp_set = set(kp_nodes)
    kp_edge_set = set(kp_edges)

    for hn, he in enumerate_h():
        # On the preimage part the factoring arrow is forced by g.e = n.h;
        # only the remaining items are free, with candidates inside the
        # fibers of a forced by a.g = f.
        forced_nodes = {cid: n.nodemap[hn[cid]] for cid in kp_nodes}

        free_nodes = [cid for cid in range(num) if cid not in kp_set]
        free_edges = [ei for ei in range(len(edges)) if ei not in kp_edge_set]

        def count_g():
            assign = dict(forced_nodes)

            def node_cands(cid):
                return [y for y in afib_nodes[f_node[cid]] if pol is None or pol[cid] <= d_obj.node_labels[y]]

            def edge_choices():
                # Edge images are independent of each other once the node
                # images are fixed, so the count is a plain product.
                prod = 1
                for ei in free_edges:
                    s, t = ends[ei]
                    cnt = 0
                    for ye in afib_edges[f_edge[ei]]:
                        if gd.src[ye] == assign[s] and gd.tgt[ye] == assign[t]:
                            cnt += 1
                            if cnt >= 2:
                                break
                    if cnt == 0:
                        return 0
                    prod *= cnt
                    if prod >= 2:
                        return 2
                return prod

            total = 0

            def rec_nodes(i):
                nonlocal total
                if total >= 2:
                    return
                if i == len(free_nodes):
                    total += edge_choices()
                    return
                cid = free_nodes[i]
                for y in node_cands(cid):
                    assign[cid] = y
                    rec_nodes(i + 1)
                    del assign[cid]
                    if total >= 2:
                        return

            rec_nodes(0)
            return total

        found = count_g()
        if found != 1:
            return {
                "reason": "factoring arrow not unique" if found else "no factoring arrow",
                "competitor_nodes": {f"{x}/{i}": x for (x, i) in copies},
                "competitor_edges": [
                    {"over": ge, "src": f"{copies[s][0]}/{copies[s][1]}",
                     "tgt": f"{copies[t][0]}/{copies[t][1]}"}
                    for ge, s, t in edges
                ],
                "lift": {f"{copies[cid][0]}/{copies[cid][1]}": hn[cid] for cid in kp_nodes},
                "count": found,
            }
    return None


def psqpo_step(rule: Rule, m: Morphism) -> RewriteTrace:
    """One polarized-cloning step: the first phase runs over polarized
    graphs, the pushout over plain graphs."""
    if rule.mode != "PSQPO":
        raise RuleError("psqpo_step needs a rule in PSQPO mode")
    if rule.nplus is None or rule.nminus is None:
        raise RuleError("polarized rules must carry a polarity on the interface")
    if not validate_morphism(m, GR).is_mono_in_M:
        raise PreconditionError("matches must be injective graph morphisms")
    if m.source != rule.lhs:
        raise PreconditionError("match must start at the rule's left-hand side")

    khat = PolarizedGraph(rule.interface, rule.nplus, rule.nminus)
    lhat = Morphism(khat, pol_induce(rule.lhs), dict(rule.l.nodemap), dict(rule.l.edgemap))
    mhat = pol_induce(m)
    fp = fpbc(lhat, mhat, GRPOL)

    n = pol_forget(fp.n)
    po = pushout_along_mono(n, rule.r, GR)
    trace = RewriteTrace(
        rule, m,
        l_prime=pol_forget(t_morphism(lhat, GRPOL)),
        m_bar=bar(m, GR),
        context=pol_forget(fp.context),
        g=pol_forget(fp.a),
        n_prime=pol_forget(fp.n_prime),
        n=n,
        result=po.result,
        h=po.h,
        p=po.p,
        polarized=PolarizedPhase(khat, lhat, mhat, fp.n, fp.a, fp.n_prime),
    )
    _assert_trace(trace, GR)
    return trace


def strict_complement(m: Morphism, instance: CategoryInstance):
    """The largest subobject of the match target disjoint from the image.

    Computed twice: as the pullback of the characteristic arrow against the
    ``false`` point, and directly by removing the image together with every
    edge touching it.  The two must agree under the canonical relabeling.
    """
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("strict complements are taken of admissible monos")
    g_obj = m.target
    g = carrier(g_obj)
    hit_nodes = set(m.nodemap.values())
    hit_edges = set(m.edgemap.values())
    nodes = {x for x in g.nodes if x not in hit_nodes}
    edges = {e for e in g.src if e not in hit_edges and g.src[e] in nodes and g.tgt[e] in nodes}

    graph = Graph(frozenset(nodes), {e: g.src[e] for e in edges}, {e: g.tgt[e] for e in edges})
    comp = instance.make(graph, _restrict(g_obj.node_labels, nodes), _restrict(g_obj.edge_labels, edges))
    incl = Morphism(comp, g_obj, {x: x for x in nodes}, {e: e for e in edges})

    ch = characteristic(m, instance)
    pb = pullback(ch.chi, ch.false_pt, instance)
    apex = carrier(pb.apex)
    assert {pb.p1.nodemap[x] for x in apex.nodes} == nodes
    assert {pb.p1.edgemap[e] for e in apex.src} == edges
    labels = pb.apex.node_labels
    assert labels is None or {pb.p1.nodemap[x]: label for x, label in labels.items()} == comp.node_labels
    return comp, incl


def _restrict(labels, items):
    return None if labels is None else {x: labels[x] for x in items}


def complement_of_square(n: Morphism, l: Morphism, m: Morphism, g: Morphism,
                         instance: CategoryInstance) -> Morphism:
    """Restrict ``g`` to the strict complements of a pullback square.

    Given a pullback square with vertical admissible monos ``n: K >-> D``
    and ``m: L >-> G`` over ``l: K -> L`` and ``g: D -> G``, the restriction
    is the unique arrow between the complements, and the restricted square
    is again a pullback.
    """
    if not is_pullback_square(l, n, m, g, instance):
        raise PreconditionError("complement_of_square needs a pullback square")
    comp_d, incl_d = strict_complement(n, instance)
    comp_g, incl_g = strict_complement(m, instance)
    cd = carrier(comp_d)
    cg = carrier(comp_g)
    nodemap = {x: g.nodemap[x] for x in cd.nodes}
    edgemap = {e: g.edgemap[e] for e in cd.src}
    assert set(nodemap.values()) <= cg.nodes and set(edgemap.values()) <= set(cg.src)
    out = Morphism(comp_d, comp_g, nodemap, edgemap)
    rep = validate_morphism(out, instance)
    assert rep.valid
    assert is_pullback_square(out, incl_d, incl_g, g, instance)
    return out


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
