"""A rewrite step computed from the paper's definition, item by item.

A step at a match ``m: L >-> G`` for a rule ``L <-l- K -r-> R`` with
embedding ``t: K >-> TK`` is, in the paper's terms:

- ``m_bar: G -> T(L)`` classifies ``m``: an item ``m(y)`` goes to ``y``,
  every other node to the star above its label, every other edge to the
  star edge above its label between the images of its ends;
- ``l_prime: TK -> T(L)`` is fixed item by item: on ``t(k)`` it is
  ``eta_L(l(k))``, which is ``l(k)`` itself; elsewhere in TK it is the star
  above the item's label, as for ``m_bar``;
- the context D is the set of pairs ``(x, s)`` of G and TK items with
  ``m_bar(x) = l_prime(s)``, labelled with the meet of their labels;
  ``g`` and ``n_prime`` are its two projections, and ``n: K -> D`` sends
  ``k`` to ``(m(l(k)), t(k))``;
- H glues R into D along ``n``: D's items keep their names under a ``D:``
  prefix, R's items enter with an ``R:`` prefix, and ``n(k)`` is glued to
  ``R:r(k)``.

A PSQPO step takes its first phase over polarized graphs: G, L and ``m``
through ``pol_induce``, K and TK polarized by the rule, and its second
phase over plain graphs.

Everything here is written from that definition and the setting's label
table; nothing is taken from the engine's classifier or limit
constructions, and no ``T(L)`` is built: the arrows into it are compared
by their maps.  :func:`assert_same_step` compares a step's trace with
:func:`reference_step`: D, H and all eleven arrows of the trace, ids and
the insertion order of every dict included.  It raises
``AssertionError`` itself, so it also checks under ``python -O``.
"""

from typing import NamedTuple, Optional

from agree import GR, GRPOL, Graph, PolarizedGraph, pol_induce

# The arrows of a step's trace, as ``RewriteTrace`` names them.
ARROWS = ("l", "r", "t", "n", "m", "m_bar", "l_prime", "g", "n_prime", "h", "p")


class Arrow(NamedTuple):
    """An arrow's two ends and two maps; ``target`` is ``None`` for an
    arrow into T(L), which the reference does not build."""

    source: Graph
    target: Optional[Graph]
    nodemap: dict
    edgemap: dict


class Step(NamedTuple):
    context: Graph
    result: Graph
    arrows: dict  # name -> Arrow


def _arrow(f) -> Arrow:
    return Arrow(f.source, f.target, f.nodemap, f.edgemap)


def _node_order(graph: Graph) -> list:
    """A graph's nodes in the order its label column lists them, or in the
    order of its node set where it has no labels."""
    return list(graph.nodes if graph.node_labels is None else graph.node_labels)


def _label(labels, item):
    return None if labels is None else labels[item]


def _star_edge(ends: tuple, label) -> str:
    src, tgt = ends
    return f"*({src},{tgt})" if label is None else f"*({src},{tgt}):{label}"


def _classify(graph: Graph, nodes: dict, edges: dict, instance) -> Arrow:
    """The arrow from ``graph`` into T(L) that is ``nodes``/``edges`` where
    they are defined and the star above each other item's label
    elsewhere, in ``graph``'s node and edge order."""
    node_labels, edge_labels = graph.node_labels, graph.edge_labels
    nodemap = {}
    for x in _node_order(graph):
        nodemap[x] = nodes[x] if x in nodes else "*" + instance.star(_label(node_labels, x))
    edgemap = {}
    for e in graph.src:
        edgemap[e] = edges[e] if e in edges else _star_edge(
            (nodemap[graph.src[e]], nodemap[graph.tgt[e]]), _label(edge_labels, e))
    return Arrow(graph, None, nodemap, edgemap)


def _inverse(mapping: dict) -> dict:
    return {image: item for item, image in mapping.items()}


def _meet_column(instance, left, right, pairs):
    if left is None:
        return None
    return {f"({x},{s})": instance.meet(left[x], right[s]) for x, s in pairs}


def first_phase(l, t, m, instance) -> dict:
    """``m_bar``, ``l_prime``, D's pairs and the projections, and ``n``, for
    ``K -l-> L -m-> G`` and the embedding ``t: K -> TK``, as arrows."""
    host, tk = m.target, t.target
    t_nodes, t_edges = _inverse(t.nodemap), _inverse(t.edgemap)
    l_prime = _classify(tk, {s: l.nodemap[k] for s, k in t_nodes.items()},
                        {d: l.edgemap[k] for d, k in t_edges.items()}, instance)
    m_bar = _classify(host, _inverse(m.nodemap), _inverse(m.edgemap), instance)

    node_pairs = [(x, s) for x in sorted(host.nodes) for s in sorted(tk.nodes)
                  if m_bar.nodemap[x] == l_prime.nodemap[s]]
    edge_pairs = [(e, d) for e in sorted(host.src) for d in sorted(tk.src)
                  if m_bar.edgemap[e] == l_prime.edgemap[d]]
    names = [f"({x},{s})" for x, s in node_pairs]
    edge_names = [f"({e},{d})" for e, d in edge_pairs]
    src = {name: f"({host.src[e]},{tk.src[d]})" for name, (e, d) in zip(edge_names, edge_pairs)}
    tgt = {name: f"({host.tgt[e]},{tk.tgt[d]})" for name, (e, d) in zip(edge_names, edge_pairs)}
    context = Graph(frozenset(names), src, tgt,
                    _meet_column(instance, host.node_labels, tk.node_labels, node_pairs),
                    _meet_column(instance, host.edge_labels, tk.edge_labels, edge_pairs),
                    instance.typegraph)

    g = Arrow(context, host, {name: x for name, (x, _) in zip(names, node_pairs)},
              {name: e for name, (e, _) in zip(edge_names, edge_pairs)})
    n_prime = Arrow(context, tk, {name: s for name, (_, s) in zip(names, node_pairs)},
                    {name: d for name, (_, d) in zip(edge_names, edge_pairs)})
    n = Arrow(l.source, context,
              {k: f"({m.nodemap[y]},{t.nodemap[k]})" for k, y in l.nodemap.items()},
              {k: f"({m.edgemap[y]},{t.edgemap[k]})" for k, y in l.edgemap.items()})
    return {"m_bar": m_bar, "l_prime": l_prime, "g": g, "n_prime": n_prime, "n": n}


def second_phase(n: Arrow, r, instance) -> tuple:
    """H, ``h: D -> H`` and ``p: R -> H`` for the span ``D <-n- K -r-> R``."""
    context, rhs = n.target, r.target
    p_nodes = {y: "R:" + y for y in rhs.nodes}
    p_edges = {d: "R:" + d for d in rhs.src}
    glued_nodes = {x: p_nodes[r.nodemap[k]] for k, x in n.nodemap.items()}
    glued_edges = {e: p_edges[r.edgemap[k]] for k, e in n.edgemap.items()}
    h_nodes = {x: glued_nodes.get(x, "D:" + x) for x in context.nodes}
    h_edges = {e: glued_edges.get(e, "D:" + e) for e in context.src}

    src, tgt = {}, {}
    for e in context.src:
        if e not in glued_edges:
            src[h_edges[e]] = h_nodes[context.src[e]]
            tgt[h_edges[e]] = h_nodes[context.tgt[e]]
    for d in rhs.src:
        src[p_edges[d]] = p_nodes[rhs.src[d]]
        tgt[p_edges[d]] = p_nodes[rhs.tgt[d]]
    result = Graph(frozenset(h_nodes.values()) | frozenset(p_nodes.values()), src, tgt,
                   _glued(context.node_labels, rhs.node_labels, h_nodes, p_nodes),
                   _glued(context.edge_labels, rhs.edge_labels, h_edges, p_edges),
                   instance.typegraph)
    return result, Arrow(context, result, h_nodes, h_edges), Arrow(rhs, result, p_nodes, p_edges)


def _glued(context_labels, rhs_labels, h, p):
    """Kept context items keep their labels; glued and right-hand-side
    items take the right-hand side's."""
    if context_labels is None:
        return None
    labels = {h[x]: label for x, label in context_labels.items()}
    for y, label in rhs_labels.items():
        labels[p[y]] = label
    return labels


def _forget(graph: Graph) -> Graph:
    return Graph(graph.nodes, graph.src, graph.tgt)


def _polarized_first_phase(rule, m) -> dict:
    """A PSQPO step's first phase over polarized graphs, with polarity
    then dropped from every object."""
    k, tk = rule.interface, rule.t.target
    khat = PolarizedGraph(k, rule.nplus, rule.nminus)
    # Off t(K), TK's items are its star part, which has both capabilities.
    outside = tk.nodes - set(rule.t.nodemap.values())
    tkhat = PolarizedGraph(tk, {rule.t.nodemap[x] for x in rule.nplus} | outside,
                           {rule.t.nodemap[x] for x in rule.nminus} | outside)
    lhat = _arrow(rule.l)._replace(source=khat, target=pol_induce(rule.lhs))
    that = _arrow(rule.t)._replace(source=khat, target=tkhat)
    phase = first_phase(lhat, that, pol_induce(m), GRPOL)
    return {name: Arrow(_forget(a.source), None if a.target is None else _forget(a.target),
                        a.nodemap, a.edgemap)
            for name, a in phase.items()}


def reference_step(rule, m, instance) -> Step:
    """The step of ``rule`` at ``m`` from the definition."""
    if rule.mode == "PSQPO":
        phase, instance = _polarized_first_phase(rule, m), GR
    else:
        phase = first_phase(rule.l, rule.t, m, instance)
    result, h, p = second_phase(phase["n"], rule.r, instance)
    arrows = {"l": _arrow(rule.l), "r": _arrow(rule.r), "t": _arrow(rule.t), "m": _arrow(m),
              **phase, "h": h, "p": p}
    return Step(phase["n"].target, result, {name: arrows[name] for name in ARROWS})


def _check(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def _same_dict(got: dict, want: dict, what: str):
    _check(got == want, f"{what} differs")
    _check(list(got) == list(want), f"{what} lists its keys in another order")


def _same_graph(got: Graph, want: Graph, what: str):
    _check(got.nodes == want.nodes, f"{what}: node set differs")
    _check(got.typegraph == want.typegraph, f"{what}: type graph differs")
    _same_dict(got.src, want.src, f"{what}: src")
    _same_dict(got.tgt, want.tgt, f"{what}: tgt")
    for column in ("node_labels", "edge_labels"):
        mine, theirs = getattr(got, column), getattr(want, column)
        _check((mine is None) == (theirs is None), f"{what}: {column} present on one side only")
        if mine is not None:
            _same_dict(mine, theirs, f"{what}: {column}")


def _traced(trace, name: str):
    """The arrow ``name`` of a ``RewriteTrace``."""
    if name in ("l", "r", "t"):
        return getattr(trace.rule, name)
    return trace.match if name == "m" else getattr(trace, name)


def assert_same_step(trace, ref: Step):
    """Raise ``AssertionError`` unless ``trace`` is the step ``ref``."""
    _same_graph(trace.context, ref.context, "D")
    _same_graph(trace.result, ref.result, "H")
    total = trace.m_bar.target
    _check(trace.l_prime.target == total, "m_bar and l_prime end in different objects")
    for name, want in ref.arrows.items():
        got = _traced(trace, name)
        _same_graph(got.source, want.source, f"{name}'s source")
        if want.target is None:
            _check(total.nodes.issuperset(got.nodemap.values())
                   and total.src.keys() >= set(got.edgemap.values()), f"{name} leaves T(L)")
        else:
            _same_graph(got.target, want.target, f"{name}'s target")
        _same_dict(got.nodemap, want.nodemap, f"{name}'s node map")
        _same_dict(got.edgemap, want.edgemap, f"{name}'s edge map")
