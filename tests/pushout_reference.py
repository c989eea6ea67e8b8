"""The pushout along a mono as it was before it named every item once.

``pushout_along_mono`` here names D's items through the inverse of ``n``
with one conditional per item.  Tests compare
``agree.pushout_along_mono`` against it: the result, both legs, and the
insertion order of every map.
"""

from agree import CategoryInstance, Graph, Morphism, PreconditionError, compose, validate_morphism
from agree.catops import Pushout


def _checked(instance, source, target, nodemap, edgemap) -> tuple:
    """The morphism and its validation report; an invalid one raises
    ``AssertionError``, also under ``python -O``."""
    m = Morphism(source, target, nodemap, edgemap)
    rep = validate_morphism(m, instance)
    if not rep.valid:
        raise AssertionError(f"internal construction produced an invalid morphism: {rep.problems}")
    return m, rep


def pushout_along_mono(n: Morphism, r: Morphism, instance: CategoryInstance) -> Pushout:
    """Glue ``R`` into ``D`` over ``K``: kept context keeps a ``D:`` prefix,
    right-hand-side items enter with an ``R:`` prefix."""
    if instance.kind == "grpol":
        raise PreconditionError("pushouts are only provided for plain and typed graphs")
    if n.source != r.source:
        raise PreconditionError("pushout needs a span: the two arrows must share their source")
    if not validate_morphism(n, instance).is_mono_in_M:
        raise PreconditionError("pushout requires the first leg to be an admissible mono")
    gd, gr_ = n.target, r.target

    n_nodes = set(n.nodemap.values())
    n_edges = set(n.edgemap.values())
    inv_n = {v: k for k, v in n.nodemap.items()}
    inv_e = {v: k for k, v in n.edgemap.items()}

    h_nodes = {x: f"D:{x}" if x not in n_nodes else f"R:{r.nodemap[inv_n[x]]}" for x in gd.nodes}
    p_nodes = {y: f"R:{y}" for y in gr_.nodes}
    nodes = {h_nodes[x] for x in gd.nodes if x not in n_nodes} | set(p_nodes.values())

    h_edges = {}
    src = {}
    tgt = {}
    for e in gd.src:
        if e in n_edges:
            h_edges[e] = f"R:{r.edgemap[inv_e[e]]}"
        else:
            eid = f"D:{e}"
            h_edges[e] = eid
            src[eid] = h_nodes[gd.src[e]]
            tgt[eid] = h_nodes[gd.tgt[e]]
    p_edges = {d: f"R:{d}" for d in gr_.src}
    for d in gr_.src:
        src[f"R:{d}"] = p_nodes[gr_.src[d]]
        tgt[f"R:{d}"] = p_nodes[gr_.tgt[d]]
    result = Graph(
        frozenset(nodes), src, tgt,
        _glued(n.target.node_labels, r.target.node_labels, h_nodes, p_nodes),
        _glued(n.target.edge_labels, r.target.edge_labels, h_edges, p_edges),
        instance.typegraph,
    )

    h, _ = _checked(instance, n.target, result, h_nodes, h_edges)
    p, _ = _checked(instance, r.target, result, p_nodes, p_edges)
    if compose(h, n) != compose(p, r):
        raise AssertionError("the pushout square does not commute")
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
