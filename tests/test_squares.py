"""``is_pullback_square`` against the canonical pullback construction in
``square_reference.py``: the squares the laws decide, the square a rewrite
step leaves on a 200-node host, and mutants of each that break one
condition of a pullback (an item duplicated, an item dropped, a polarized
capability removed below the meet)."""

import random

import pytest

import agree
import agree.catops
import agree.laws
import agree.rewrite
import fpbc_reference
from agree import Graph, Morphism, agree_step, fpbc
from agree.catops import is_pullback_square as decide
from agree.laws import LAWS, _Gen, default_instance, run_law

from square_reference import assert_same_answer

SETTINGS = ("gr", "typed", "pol")
SEEDS = range(20)


def _law_squares(category, monkeypatch):
    """Every square the laws other than ``FPBC_FINAL`` decide in one
    setting, five instances per law and seed."""
    inst = default_instance(category)
    squares = []

    def recorded(decide_here):
        def record(*args):
            squares.append(args)
            return decide_here(*args)
        return record

    for module in (agree.laws, agree.rewrite):
        monkeypatch.setattr(module, "is_pullback_square", recorded(module.is_pullback_square))
    for law, (_, _, settings) in LAWS.items():
        if law == "FPBC_FINAL" or inst.kind not in settings:
            continue
        for seed in SEEDS:
            assert run_law(law, seed=seed, instance=inst, count=5).passed
    return squares


def _into_large_host(gen, lhs, inst):
    """An admissible mono from ``lhs`` into a host of 200 nodes and about
    400 more edges, drawn as ``_Gen.match_onto`` draws them, with the
    possible ends of each edge label looked up once."""
    rng = gen.rng
    m = gen.match_onto(lhs, extra_nodes=200 - len(lhs.nodes), extra_edges=0)
    host = m.target
    nodes = sorted(host.nodes)
    src, tgt = dict(host.src), dict(host.tgt)
    edge_labels = None if m.target.edge_labels is None else dict(m.target.edge_labels)
    labels = sorted(inst.typegraph.src) if inst.typegraph is not None else [None]
    ends = {label: gen._ends(m.target.node_labels, nodes, label) for label in labels}
    for i in range(400):
        label = rng.choice(labels)
        srcs, tgts = ends[label]
        if srcs and tgts:
            src[f"gxe{i}"], tgt[f"gxe{i}"] = rng.choice(srcs), rng.choice(tgts)
            if edge_labels is not None:
                edge_labels[f"gxe{i}"] = label
    host = Graph(host.nodes, src, tgt, m.target.node_labels, edge_labels, inst.typegraph)
    return Morphism(lhs, host, m.nodemap, m.edgemap)


def _step_squares(category):
    """``(l, n, m, g)`` after a step, and ``(l, n, m, a)`` of the final
    pullback complement in the polarized setting, at a match into a host
    of 200 nodes."""
    inst = default_instance(category)
    for seed in SEEDS:
        gen = _Gen(random.Random(f"squares/step/{category}/{seed}"), (4, 5), inst)
        if category == "pol":
            l, m = gen.fpbc_pair()
            m = _into_large_host(gen, m.source, inst)
            fp = fpbc(l, m, inst)
            yield l, fp.n, m, fp.a, inst
        else:
            rule = gen.span_rule()
            m = _into_large_host(gen, rule.lhs, inst)
            tr = agree_step(rule, m, inst)
            yield rule.l, tr.n, m, tr.g, inst


def _with_apex(p, q, inst, nodes, src, tgt, node_labels, edge_labels, pn, pe, qn, qe):
    apex = Graph(frozenset(nodes), src, tgt, node_labels, edge_labels, inst.typegraph)
    return Morphism(apex, p.target, pn, pe), Morphism(apex, q.target, qn, qe)


def _parts(p, q):
    apex = p.source
    g = apex
    labels = [None if ls is None else dict(ls) for ls in (apex.node_labels, apex.edge_labels)]
    return (set(g.nodes), dict(g.src), dict(g.tgt), *labels,
            dict(p.nodemap), dict(p.edgemap), dict(q.nodemap), dict(q.edgemap))


def _duplicated(p, q, inst, kind):
    """A copy of one item (a node on its own, an edge parallel to its
    original) takes the place of another item of its kind where one can
    go, so the pairs repeat while their number may stay right."""
    nodes, src, tgt, nl, el, pn, pe, qn, qe = _parts(p, q)
    if kind == "node":
        items = sorted(nodes)
        if not items:
            return None
        v = items[0]
        isolated = [w for w in items if w != v and w not in src.values() and w not in tgt.values()]
        copy = v + "~"
        nodes.add(copy)
        pn[copy], qn[copy] = pn[v], qn[v]
        if nl is not None:
            nl[copy] = nl[v]
        for w in isolated[:1]:
            nodes.discard(w)
            for table in (pn, qn, nl):
                if table is not None:
                    del table[w]
    else:
        items = sorted(src)
        if not items:
            return None
        d = items[0]
        copy = d + "~"
        src[copy], tgt[copy], pe[copy], qe[copy] = src[d], tgt[d], pe[d], qe[d]
        if el is not None:
            el[copy] = el[d]
        for e in items[1:2]:
            for table in (src, tgt, pe, qe, el):
                if table is not None:
                    del table[e]
    return _with_apex(p, q, inst, nodes, src, tgt, nl, el, pn, pe, qn, qe)


def _dropped(p, q, inst, kind):
    """One item left out: the last edge, or the last node with its edges."""
    nodes, src, tgt, nl, el, pn, pe, qn, qe = _parts(p, q)
    if kind == "node":
        if not nodes:
            return None
        v = max(nodes)
        nodes.discard(v)
        for table in (pn, qn, nl):
            if table is not None:
                del table[v]
        gone = [e for e in src if v in (src[e], tgt[e])]
    else:
        gone = sorted(src)[-1:]
        if not gone:
            return None
    for e in gone:
        for table in (src, tgt, pe, qe, el):
            if table is not None:
                del table[e]
    return _with_apex(p, q, inst, nodes, src, tgt, nl, el, pn, pe, qn, qe)


def _weakened(p, q, inst):
    """A polarized node loses a capability its edges do not need."""
    if inst.kind != "grpol":
        return None
    nodes, src, tgt, nl, el, pn, pe, qn, qe = _parts(p, q)
    needed = {v: set() for v in nodes}
    for e in src:
        needed[src[e]].add("+")
        needed[tgt[e]].add("-")
    for v in sorted(nodes):
        spare = sorted(nl[v] - needed[v])
        if spare:
            nl[v] = nl[v] - {spare[0]}
            return _with_apex(p, q, inst, nodes, src, tgt, nl, el, pn, pe, qn, qe)
    return None


def _mutants(p, q, inst):
    """``(kind, (p', q'))`` for each mutant that ``p, q`` allow."""
    for item in ("node", "edge"):
        yield f"duplicated {item}", _duplicated(p, q, inst, item)
        yield f"dropped {item}", _dropped(p, q, inst, item)
    yield "weakened", _weakened(p, q, inst)


def _answers(squares):
    """The answers over ``squares`` and over each kind of their mutants,
    each compared with the reference."""
    answers = {"squares": set()}
    for p, q, f, g, inst in squares:
        answers["squares"].add(assert_same_answer(decide, p, q, f, g, inst))
        for kind, mutant in _mutants(p, q, inst):
            if mutant is not None:
                answers.setdefault(kind, set()).add(assert_same_answer(decide, *mutant, f, g, inst))
    return answers


def _expected(category):
    """Every square is a pullback and every mutant is not; each kind of
    mutant occurs, the weakened one in the polarized setting only."""
    kinds = ["duplicated node", "dropped node", "duplicated edge", "dropped edge"]
    kinds += ["weakened"] if category == "pol" else []
    return {"squares": {True}, **dict.fromkeys(kinds, {False})}


@pytest.mark.parametrize("category", SETTINGS)
def test_law_squares_and_their_mutants(category, monkeypatch):
    squares = _law_squares(category, monkeypatch)
    assert len(squares) > 200
    assert _answers(squares) == _expected(category)


@pytest.mark.parametrize("category", SETTINGS)
def test_step_squares_and_their_mutants(category):
    squares = list(_step_squares(category))
    assert all(len(m.target.nodes) == 200 for _, _, m, _, _ in squares)
    assert _answers(squares) == _expected(category)


def test_every_binding_goes_through_the_reference():
    """The suite-wide fixture wraps every module's ``is_pullback_square``."""
    for module in (agree, agree.catops, agree.laws, agree.rewrite, fpbc_reference):
        assert module.is_pullback_square is not decide
        assert module.is_pullback_square.__qualname__.startswith("squares_match_reference")
