"""The finality oracle as it was before it moved onto the shared matcher.

``fpbc_verify`` here enumerates every labelling of every competitor and
counts factoring arrows with its own backtracking search.  Tests compare
``agree.fpbc_verify`` against it; its ``count`` may read 3 where the
library's stops at 2 ("two or more").  ``mutants`` builds the candidate
complements the comparison also runs on.
"""

from itertools import combinations_with_replacement, product

from agree import CategoryInstance, Graph, Morphism, PreconditionError, compose, is_pullback_square
from agree.rewrite import FpbcReport


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
    gd = d_obj
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
    gg = g_obj
    k_obj = l.source
    gk = k_obj
    gl = m.source

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

    gk = k_obj
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


def mutants(fp, m, instance):
    """``{name: (n, a)}``: the complement ``fp`` with a node added over each
    node of G, each of its edges doubled, and each node outside n's image
    dropped together with its edges."""
    d, g = fp.context, m.target
    gd = d
    out = {}

    def variant(name, nodes, src, tgt, node_labels, edge_labels, a_nodes, a_edges):
        obj = Graph(frozenset(nodes), src, tgt, node_labels, edge_labels, instance.typegraph)
        out[name] = (Morphism(fp.n.source, obj, dict(fp.n.nodemap), dict(fp.n.edgemap)),
                     Morphism(obj, g, a_nodes, a_edges))

    def with_item(labels, item, label):
        return None if labels is None else dict(labels, **{item: label})

    for x in sorted(g.nodes):
        variant(f"ghost over {x}", gd.nodes | {"ghost"}, dict(gd.src), dict(gd.tgt),
                with_item(d.node_labels, "ghost", None if g.node_labels is None else g.node_labels[x]),
                d.edge_labels, dict(fp.a.nodemap, ghost=x), dict(fp.a.edgemap))
    for e in sorted(gd.src):
        variant(f"double {e}", gd.nodes, dict(gd.src, dup=gd.src[e]), dict(gd.tgt, dup=gd.tgt[e]),
                d.node_labels, with_item(d.edge_labels, "dup", None if d.edge_labels is None else d.edge_labels[e]),
                fp.a.nodemap, dict(fp.a.edgemap, dup=fp.a.edgemap[e]))
    kept = set(fp.n.nodemap.values())
    for y in sorted(gd.nodes - kept):
        edges = [e for e in gd.src if y not in gd.ends(e)]
        variant(f"drop {y}", gd.nodes - {y}, {e: gd.src[e] for e in edges}, {e: gd.tgt[e] for e in edges},
                None if d.node_labels is None else {x: c for x, c in d.node_labels.items() if x != y},
                None if d.edge_labels is None else {e: d.edge_labels[e] for e in edges},
                {x: i for x, i in fp.a.nodemap.items() if x != y}, {e: fp.a.edgemap[e] for e in edges})
    return out
