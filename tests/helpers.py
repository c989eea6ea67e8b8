"""Brute-force oracles, independent of the library's optimized search paths.

Everything here enumerates by plain cartesian product and filters with the
definitional morphism check, so it can serve as ground truth for the
engine's constructions on desk-scale inputs.
"""

from itertools import product

from agree import (
    Graph,
    Morphism,
    PolarizedGraph,
    TypedGraph,
    compose,
    validate_morphism,
)
from agree.io import graph_doc


def naive_morphisms(x, y, instance):
    """Every valid morphism x -> y, found by filtering the full map product."""
    gx, gy = x, y
    xs, ys = sorted(gx.nodes), sorted(gy.nodes)
    xe, ye = sorted(gx.src), sorted(gy.src)
    if (xs and not ys) or (xe and not ye):
        return
    for nimg in product(ys, repeat=len(xs)):
        nodemap = dict(zip(xs, nimg))
        for eimg in product(ye, repeat=len(xe)):
            f = Morphism(x, y, nodemap, dict(zip(xe, eimg)))
            if validate_morphism(f, instance).valid:
                yield f


def naive_monos(x, y, instance):
    for f in naive_morphisms(x, y, instance):
        if validate_morphism(f, instance).is_mono_in_M:
            yield f


def naive_isos(x, y, instance):
    for f in naive_morphisms(x, y, instance):
        if validate_morphism(f, instance).is_iso:
            yield f


def set_partitions(items):
    """All partitions of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _wrap_like(template, graph, node_types=None, edge_types=None):
    if template.typegraph is not None:
        return TypedGraph(graph, template.typegraph,
                          Morphism(graph, template.typegraph, node_types, edge_types))
    return graph


def cocone_targets(h_obj, instance):
    """Candidate cocone objects: quotients of the pushout result (homogeneous
    node classes, with and without merging parallel edges) and one-item
    extensions."""
    g = h_obj
    typed = h_obj.typegraph is not None

    for part in set_partitions(sorted(g.nodes)):
        if typed and any(len({h_obj.node_labels[x] for x in cls}) > 1 for cls in part):
            continue
        cls_of = {}
        names = {}
        for i, cls in enumerate(sorted(part)):
            name = f"q{i}"
            names[name] = cls
            for x in cls:
                cls_of[x] = name
        node_types = {name: h_obj.node_labels[cls[0]] for name, cls in names.items()} if typed else None

        src = {e: cls_of[g.src[e]] for e in g.src}
        tgt = {e: cls_of[g.tgt[e]] for e in g.src}
        plain = Graph(frozenset(names), dict(src), dict(tgt))
        edge_types = dict(h_obj.edge_labels) if typed else None
        yield _wrap_like(h_obj, plain, node_types, edge_types)

        groups = {}
        for e in sorted(g.src):
            key = (src[e], tgt[e], h_obj.edge_labels[e] if typed else None)
            groups.setdefault(key, e)
        merged_ids = {key: f"m{i}" for i, key in enumerate(sorted(groups))}
        merged = Graph(frozenset(names),
                       {merged_ids[k]: k[0] for k in merged_ids},
                       {merged_ids[k]: k[1] for k in merged_ids})
        merged_types = {merged_ids[k]: k[2] for k in merged_ids} if typed else None
        yield _wrap_like(h_obj, merged, node_types, merged_types)

    node_types = dict(h_obj.node_labels) if typed else None
    edge_types = dict(h_obj.edge_labels) if typed else None
    fresh_types = sorted(instance.typegraph.nodes) if typed else [None]
    for ft in fresh_types:
        extra_nodes = g.nodes | {"extra"}
        nt = dict(node_types, extra=ft) if typed else None
        yield _wrap_like(h_obj, Graph(extra_nodes, dict(g.src), dict(g.tgt)), nt, edge_types)

    etypes = sorted(instance.typegraph.src) if typed else [None]
    for u in sorted(g.nodes):
        for v in sorted(g.nodes):
            for et in etypes:
                if typed:
                    tgraph = instance.typegraph
                    if tgraph.src[et] != h_obj.node_labels[u] or tgraph.tgt[et] != h_obj.node_labels[v]:
                        continue
                extended = Graph(g.nodes, dict(g.src, extra=u), dict(g.tgt, extra=v))
                ets = dict(edge_types, extra=et) if typed else None
                yield _wrap_like(h_obj, extended, node_types, ets)


def pushout_is_universal(n, r, result, h, p, instance, targets=None):
    """Mediator existence and uniqueness against a family of cocones."""
    targets = cocone_targets(result, instance) if targets is None else targets
    for c in targets:
        for u in naive_morphisms(n.target, c, instance):
            un = compose(u, n)
            for v in naive_morphisms(r.target, c, instance):
                if un != compose(v, r):
                    continue
                mediators = [
                    w for w in naive_morphisms(result, c, instance)
                    if compose(w, h) == u and compose(w, p) == v
                ]
                if len(mediators) != 1:
                    return False
    return True


def pullback_is_universal(f, g, apex, p1, p2, instance, cone_objects):
    """Mediator existence and uniqueness against cones from the given objects."""
    for w_obj in cone_objects:
        for v in naive_morphisms(w_obj, f.source, instance):
            fv = compose(f, v)
            for w in naive_morphisms(w_obj, g.source, instance):
                if fv != compose(g, w):
                    continue
                mediators = [
                    z for z in naive_morphisms(w_obj, apex, instance)
                    if compose(p1, z) == v and compose(p2, z) == w
                ]
                if len(mediators) != 1:
                    return False
    return True


def small_cone_objects(instance):
    """A fixed family of probe objects for universal-property checks."""
    if instance.kind == "typed":
        tg = instance.typegraph
        out = []
        g0 = Graph.build([])
        out.append(TypedGraph(g0, tg, Morphism(g0, tg, {}, {})))
        for t in sorted(tg.nodes):
            g1 = Graph.build(["w0"])
            out.append(TypedGraph(g1, tg, Morphism(g1, tg, {"w0": t}, {})))
        for et in sorted(tg.src):
            g2 = Graph.build(["w0", "w1"], {"we": ("w0", "w1")})
            out.append(TypedGraph(g2, tg, Morphism(
                g2, tg, {"w0": tg.src[et], "w1": tg.tgt[et]}, {"we": et})))
        return out
    plain = [
        Graph.build([]),
        Graph.build(["w0"]),
        Graph.build(["w0", "w1"]),
        Graph.build(["w0", "w1"], {"we": ("w0", "w1")}),
        Graph.build(["w0"], {"we": ("w0", "w0")}),
    ]
    if instance.kind == "grpol":
        out = []
        for g in plain:
            if g.src:
                out.append(PolarizedGraph(g, frozenset(g.src.values()), frozenset(g.tgt.values())))
                out.append(PolarizedGraph(g, g.nodes, g.nodes))
            else:
                out.append(PolarizedGraph(g, frozenset(), frozenset()))
                out.append(PolarizedGraph(g, g.nodes, g.nodes))
        return out
    return plain


def with_graph_docs(value):
    """``value`` with every graph object in it, inside dicts, lists and
    tuples too, replaced by its ``graph_doc``, and every morphism by its
    two maps, read key by key as ``morphism_doc`` reads them: the document
    ``dumps`` writes for ``value``."""
    if isinstance(value, Graph):
        return graph_doc(value)
    if isinstance(value, Morphism):
        return {key: {k: items[k] for k in items}
                for key, items in (("nodes", value.nodemap), ("edges", value.edgemap))}
    if isinstance(value, dict):
        # In key order, the order of the text: of two items that cannot be
        # written, the one written first raises.
        return {key: with_graph_docs(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return type(value)(map(with_graph_docs, value))
    return value
