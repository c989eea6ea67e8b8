"""Seeded random verification of the engine's structural laws.

Each law draws a stream of small random instances, evaluates one concrete
property per instance, and reports pass/fail together with the first
counterexample in re-checkable serialized form.  All generation is
deterministic in the seed; bounds are part of every report.
"""

from __future__ import annotations

import random
from typing import Optional

from . import io as docio
from .catops import (
    enumerate_morphisms,
    is_pullback_square,
    iso_search,
    pullback,
    pullback_mediator,
    pushout_along_mono,
)
from .classifier import bar, initial_object, phi, t_morphism, t_object
from .core import (
    GR,
    GRPOL,
    CategoryInstance,
    Graph,
    Morphism,
    _Record,
    compose,
    typed_over,
    validate_morphism,
)
from .errors import InvariantError, PreconditionError, UnknownLawError
from .rewrite import (
    _size_pair,
    Rule,
    agree_rule,
    agree_step,
    fpbc,
    fpbc_verify,
    is_local_rule,
    is_local_step,
    psqpo_rule,
    psqpo_step,
    sqpo_rule,
    strict_complement,
    complement_of_square,
)

__all__ = ["LAWS", "LAW_IDS", "LawReport", "run_law", "generate", "DEFAULT_TYPEGRAPH", "default_instance"]

DEFAULT_TYPEGRAPH = Graph.build(
    ["tn", "tm"], {"te": ("tn", "tn"), "tf": ("tn", "tm"), "tg": ("tm", "tm")}
)


def default_instance(kind: str) -> CategoryInstance:
    """The instance a CLI category name refers to."""
    if kind in ("gr", "GR"):
        return GR
    if kind in ("typed", "TYPED"):
        return typed_over(DEFAULT_TYPEGRAPH)
    if kind in ("pol", "grpol", "GRPOL"):
        return GRPOL
    raise PreconditionError(f"unknown category name {kind!r}")


class LawReport(_Record):
    _fields = __slots__ = ("law", "instance", "count", "passed", "failures", "first_counterexample", "seed", "size_bound")

    def __init__(self, law: str, instance: str, count: int, passed: bool, failures: int,
                 first_counterexample: Optional[dict], seed: int, size_bound: tuple):
        self._fill(law, instance, count, passed, failures, first_counterexample, seed, size_bound)


def _norm_bound(size_bound) -> tuple:
    """An integer ``n`` bounds nodes by ``n`` and edges by ``n + 1`` (0 if ``n`` is 0)."""
    if isinstance(size_bound, int):
        size_bound = (size_bound, size_bound + 1 if size_bound else 0)
    return _size_pair(size_bound)


def _pull(labels, mapping):
    """Labels for the keys of ``mapping``, read at their images; ``None`` stays ``None``."""
    return None if labels is None else {k: labels[v] for k, v in mapping.items()}


def _copied(labels):
    return None if labels is None else dict(labels)


class _Gen:
    """Deterministic random values for one law run.

    The random distributions differ per setting: typed objects draw a type
    for each node before its edges, polarized ones draw capabilities after
    their edges and gain the capabilities new edges need.  Labels are kept
    in plain dicts, and every object is a ``Graph`` over the instance's
    type graph.
    """

    def __init__(self, rng: random.Random, bound: tuple, instance: CategoryInstance):
        self.rng = rng
        self.nmax, self.emax = bound
        self.instance = instance
        self.typegraph = instance.typegraph
        self.polarized = instance.kind == "grpol"

    def _capabilities(self, offered, p):
        """Each offered capability, kept with probability ``p``."""
        return frozenset(c for c in "+-" if c in offered and self.rng.random() < p)

    # -- objects -----------------------------------------------------------------

    def _graph(self, prefix, nmax, emax):
        rng = self.rng
        n = rng.randint(0, nmax)
        nodes = [f"{prefix}{i}" for i in range(n)]
        edges = {}
        if n:
            for i in range(rng.randint(0, emax)):
                edges[f"{prefix}e{i}"] = (rng.choice(nodes), rng.choice(nodes))
        return Graph.build(nodes, edges)

    def _typed(self, prefix, nmax, emax):
        rng = self.rng
        tg = self.typegraph
        types = sorted(tg.nodes)
        etypes = sorted(tg.src)
        n = rng.randint(0, nmax)
        nodes = [f"{prefix}{i}" for i in range(n)]
        node_types = {x: rng.choice(types) for x in nodes}
        edges = {}
        edge_types = {}
        if n and etypes:
            for i in range(rng.randint(0, emax)):
                et = rng.choice(etypes)
                srcs, tgts = self._ends(node_types, nodes, et)
                if not srcs or not tgts:
                    continue
                eid = f"{prefix}e{i}"
                edges[eid] = (rng.choice(srcs), rng.choice(tgts))
                edge_types[eid] = et
        return Graph.build(nodes, edges, node_types, edge_types, tg)

    def _polarized(self, prefix, nmax, emax):
        g = self._graph(prefix, nmax, emax)
        caps = {x: self._capabilities("+-", 0.4) for x in sorted(g.nodes)}
        for e in g.src:
            caps[g.src[e]] |= {"+"}
            caps[g.tgt[e]] |= {"-"}
        return Graph(g.nodes, g.src, g.tgt, caps)

    def object(self, prefix="n", nmax=None, emax=None):
        nmax = self.nmax if nmax is None else nmax
        emax = self.emax if emax is None else emax
        if self.typegraph is not None:
            return self._typed(prefix, nmax, emax)
        if self.polarized:
            return self._polarized(prefix, nmax, emax)
        return self._graph(prefix, nmax, emax)

    # -- morphisms -------------------------------------------------------------

    def mono(self, target=None, prefix="x"):
        """An admissible mono onto a random subobject of ``target``."""
        rng = self.rng
        if target is None:
            target = self.object("z")
        kept_nodes = [x for x in sorted(target.nodes) if rng.random() < 0.6]
        kept_set = set(kept_nodes)
        kept_edges = [
            e for e in sorted(target.src)
            if target.src[e] in kept_set and target.tgt[e] in kept_set and rng.random() < 0.7
        ]
        nodemap = {f"{prefix}{i}": x for i, x in enumerate(kept_nodes)}
        edgemap = {f"{prefix}e{i}": e for i, e in enumerate(kept_edges)}
        inv = {x: y for y, x in nodemap.items()}
        source = Graph.build(nodemap, {d: (inv[target.src[e]], inv[target.tgt[e]]) for d, e in edgemap.items()},
                             _pull(target.node_labels, nodemap), _pull(target.edge_labels, edgemap), self.typegraph)
        m = Morphism(source, target, nodemap, edgemap)
        if not validate_morphism(m, self.instance).is_mono_in_M:
            raise InvariantError("the generator drew an arrow that is not an admissible mono")
        return m

    def arrow_into(self, target, prefix="x", nmax=None, emax=None):
        """A random morphism into ``target`` from a freshly built source."""
        rng = self.rng
        nmax = self.nmax if nmax is None else nmax
        emax = self.emax if emax is None else emax
        tnodes = sorted(target.nodes)
        n = rng.randint(0, nmax) if tnodes else 0
        nodes = [f"{prefix}{i}" for i in range(n)]
        nodemap = {x: rng.choice(tnodes) for x in nodes}
        edges = {}
        edgemap = {}
        tedges = sorted(target.src)
        if nodes and tedges:
            for i in range(rng.randint(0, emax)):
                d = rng.choice(tedges)
                srcs = [x for x in nodes if nodemap[x] == target.src[d]]
                tgts = [x for x in nodes if nodemap[x] == target.tgt[d]]
                if not srcs or not tgts:
                    continue
                eid = f"{prefix}e{i}"
                edges[eid] = (rng.choice(srcs), rng.choice(tgts))
                edgemap[eid] = d
        labels = _pull(target.node_labels, nodemap)
        if self.polarized:
            # Each capability of the image survives a coin flip; edges add what they need.
            labels = {x: self._capabilities(labels[x], 0.5) for x in nodes}
            for s, t in edges.values():
                labels[s] |= {"+"}
                labels[t] |= {"-"}
        source = Graph.build(nodes, edges, labels, _pull(target.edge_labels, edgemap), self.typegraph)
        f = Morphism(source, target, nodemap, edgemap)
        if not validate_morphism(f, self.instance).valid:
            raise InvariantError("the generator drew an arrow that is not a valid morphism")
        return f

    def morphism(self):
        target = self.object("y")
        return self.arrow_into(target, "x")

    def partial_map(self):
        """A span ``(m: X >-> Z, f: X -> Y)`` over a shared source."""
        m = self.mono(prefix="x")
        f = self._map_from(m.source, "y")
        return m, f

    def _map_from(self, source, prefix):
        """A morphism out of a fixed source into a fresh target, extending the
        target as needed so the map can be total."""
        rng = self.rng
        target = self.object(prefix)
        g, tg = source, target
        nodes = set(tg.nodes)
        edges = dict(tg.src)
        tgts = dict(tg.tgt)
        labels = _copied(target.node_labels)
        edge_labels = _copied(target.edge_labels)
        own, own_edges = source.node_labels, source.edge_labels

        nodemap = {}
        for i, x in enumerate(sorted(g.nodes)):
            cands = sorted(nodes)
            if self.typegraph is not None:
                cands = [y for y in cands if labels[y] == own[x]]
            if cands and rng.random() < 0.8:
                y = rng.choice(cands)
            else:
                y = f"{prefix}fresh{i}"
                nodes.add(y)
                if labels is not None:
                    labels[y] = own[x]
            nodemap[x] = y
            if self.polarized:
                labels[y] |= own[x]
        edgemap = {}
        for i, e in enumerate(sorted(g.src)):
            u, v = nodemap[g.src[e]], nodemap[g.tgt[e]]
            want = None if own_edges is None else own_edges[e]
            cands = sorted(
                d for d in edges
                if edges[d] == u and tgts[d] == v and (want is None or edge_labels[d] == want)
            )
            if cands and rng.random() < 0.8:
                d = rng.choice(cands)
            else:
                d = f"{prefix}freshe{i}"
                edges[d] = u
                tgts[d] = v
                if edge_labels is not None:
                    edge_labels[d] = want
                if self.polarized:
                    labels[u] |= {"+"}
                    labels[v] |= {"-"}
            edgemap[e] = d

        target = Graph(frozenset(nodes), edges, tgts, labels, edge_labels, self.typegraph)
        f = Morphism(source, target, nodemap, edgemap)
        if not validate_morphism(f, self.instance).valid:
            raise InvariantError("the generator drew an arrow that is not a valid morphism")
        return f

    def match_onto(self, lhs, extra_nodes=None, extra_edges=None):
        """An admissible mono from ``lhs`` into a larger random host."""
        rng = self.rng
        extra_nodes = rng.randint(0, 2) if extra_nodes is None else extra_nodes
        extra_edges = rng.randint(0, 2) if extra_edges is None else extra_edges
        nodemap = {x: f"g{i}" for i, x in enumerate(sorted(lhs.nodes))}
        edgemap = {e: f"ge{i}" for i, e in enumerate(sorted(lhs.src))}
        nodes = set(nodemap.values())
        edges = {edgemap[e]: nodemap[lhs.src[e]] for e in lhs.src}
        tgts = {edgemap[e]: nodemap[lhs.tgt[e]] for e in lhs.src}
        labels = _pull(lhs.node_labels, {y: x for x, y in nodemap.items()})
        edge_labels = _pull(lhs.edge_labels, {d: e for e, d in edgemap.items()})

        tg = self.typegraph
        for i in range(extra_nodes):
            y = f"gx{i}"
            nodes.add(y)
            if tg is not None:
                labels[y] = rng.choice(sorted(tg.nodes))
            elif self.polarized:
                labels[y] = self._capabilities("+-", 0.6)

        for i in range(extra_edges):
            et = None
            if tg is not None:
                if not tg.src:
                    break
                et = rng.choice(sorted(tg.src))
            # Polarized hosts only get edges between nodes that already carry
            # the capabilities: adding one to a matched node breaks strictness.
            srcs, tgs = self._ends(labels, sorted(nodes), et)
            if not srcs or not tgs:
                continue
            eid = f"gxe{i}"
            edges[eid] = rng.choice(srcs)
            tgts[eid] = rng.choice(tgs)
            if edge_labels is not None:
                edge_labels[eid] = et

        host = Graph(frozenset(nodes), edges, tgts, labels, edge_labels, tg)
        m = Morphism(lhs, host, nodemap, edgemap)
        if not validate_morphism(m, self.instance).is_mono_in_M:
            raise InvariantError("the generator drew an arrow that is not an admissible mono")
        return m

    def _ends(self, labels, nodes, label):
        """The nodes an edge with ``label`` may leave, and those it may enter."""
        between = self.instance.edge_labels_between
        tops = self.instance.stars.values()
        of = dict.fromkeys(nodes) if labels is None else labels
        return ([y for y in nodes if any(label in between(of[y], top) for top in tops)],
                [y for y in nodes if any(label in between(top, of[y]) for top in tops)])

    # -- rules ------------------------------------------------------------------

    def span_rule(self) -> Rule:
        k = self.object("k", nmax=max(1, self.nmax - 1), emax=max(0, self.emax - 2))
        l = self._map_from(k, "l")
        r = self._map_from(k, "r")
        return sqpo_rule(l, r, self.instance)

    def psqpo_rule(self) -> Rule:
        if self.instance.kind != "gr":
            raise PreconditionError("polarized rules are generated over plain graphs")
        k = self._graph("k", max(1, self.nmax - 1), max(0, self.emax - 2))
        l = self._map_from(k, "l")
        r = self._map_from(k, "r")
        plus = set(k.src.values())
        minus = set(k.tgt.values())
        for x in sorted(k.nodes):
            if self.rng.random() < 0.5:
                plus.add(x)
            if self.rng.random() < 0.5:
                minus.add(x)
        return psqpo_rule(l, r, plus, minus)

    def local_rule(self) -> Rule:
        """A random rule whose embedding leaves the star part intact up to iso:
        exactly one absorbing node per type with its loop(s), plus arbitrary
        extra edges touching the interface."""
        rng = self.rng
        k = self.object("k", nmax=max(1, self.nmax - 2), emax=max(0, self.emax - 3))
        nodes = set(k.nodes)
        edges = dict(k.src)
        tgts = dict(k.tgt)
        labels = _copied(k.node_labels)
        edge_labels = _copied(k.edge_labels)
        tg = self.typegraph
        if tg is not None:
            star = {t: f"s{t}" for t in sorted(tg.nodes)}
            nodes.update(star.values())
            labels.update({s: t for t, s in star.items()})
            for et in sorted(tg.src):
                edges[f"s{et}"] = star[tg.src[et]]
                tgts[f"s{et}"] = star[tg.tgt[et]]
                edge_labels[f"s{et}"] = et
            for i in range(rng.randint(0, 2)):
                et = rng.choice(sorted(tg.src))
                srcs = [x for x in sorted(k.nodes) if labels[x] == tg.src[et]]
                tgs = [x for x in sorted(nodes) if labels[x] == tg.tgt[et]]
                if not srcs or not tgs:
                    continue
                edges[f"kx{i}"] = rng.choice(srcs)
                tgts[f"kx{i}"] = rng.choice(tgs)
                edge_labels[f"kx{i}"] = et
        else:
            nodes.add("s")
            edges["sloop"] = "s"
            tgts["sloop"] = "s"
            knodes = sorted(k.nodes)
            for i in range(rng.randint(0, 2) if knodes else 0):
                src = rng.choice(knodes + ["s"])
                tgt = rng.choice(knodes) if src == "s" or rng.random() < 0.5 else "s"
                edges[f"kx{i}"] = src
                tgts[f"kx{i}"] = tgt
        tk = Graph(frozenset(nodes), edges, tgts, labels, edge_labels, tg)
        t = Morphism(k, tk, {x: x for x in k.nodes}, {e: e for e in k.src})
        l = self._map_from(k, "l")
        r = self._map_from(k, "r")
        return agree_rule(l, r, t, self.instance)

    def fpbc_pair(self):
        """A left-hand side and match small enough for the bounded finality
        oracle; instances whose complement exceeds 4 nodes or 4 edges are
        redrawn so the default bound stays at desk scale."""
        for _ in range(200):
            lhs = self.object("l", nmax=2, emax=2)
            l = self.arrow_into(lhs, "k", nmax=3, emax=2)
            m = self.match_onto(lhs, extra_nodes=self.rng.randint(0, 1),
                                extra_edges=self.rng.randint(0, 2))
            fp = fpbc(l, m, self.instance)
            if len(fp.context.nodes) <= 4 and len(fp.context.src) <= 4:
                return l, m
        raise PreconditionError("could not draw a desk-scale fpbc instance")


# -- individual laws --------------------------------------------------------------
#
# Each checker returns whether its instance passed and a function that builds
# the instance's failure payload, so only a failing instance is serialized.


def _ser_morphism(f):
    return docio.morphism_doc(f, with_objects=True)


def _law_eta_cartesian(gen, instance, inject):
    f = inject if inject is not None else gen.morphism()
    cx = t_object(f.source, instance)
    cy = t_object(f.target, instance)
    ok = is_pullback_square(f, cx.unit, cy.unit, t_morphism(f, instance), instance)
    return ok, lambda: {"f": _ser_morphism(f)}


def _law_phi_unique(gen, instance, inject):
    m, f = inject if inject is not None else gen.partial_map()
    cy = t_object(f.target, instance)
    ph = phi(m, f, instance)
    ok = is_pullback_square(f, m, cy.unit, ph, instance)
    z, y = m.target, f.target
    if ok and len(z.nodes) <= 3 and len(y.nodes) <= 2:
        # Exhaustive uniqueness at desk scale: a competing arrow is a
        # pullback iff it commutes and the unit part pulls back onto the
        # image of m exactly.
        m_nodes = set(m.nodemap.values())
        m_edges = set(m.edgemap.values())
        unit_f = compose(cy.unit, f)
        hits = 0
        for psi in enumerate_morphisms(m.target, cy.total, instance):
            if compose(psi, m) != unit_f:
                continue
            pre_nodes = {x for x, v in psi.nodemap.items() if v in y.nodes}
            pre_edges = {e for e, v in psi.edgemap.items() if v in set(y.src)}
            if pre_nodes == m_nodes and pre_edges == m_edges:
                hits += 1
                if psi != ph:
                    ok = False
        ok = ok and hits == 1
    return ok, lambda: {"m": _ser_morphism(m), "f": _ser_morphism(f)}


def _law_phi_decomp(gen, instance, inject):
    m, f = gen.partial_map()
    ok = compose(t_morphism(f, instance), bar(m, instance)) == phi(m, f, instance)
    w = gen.object("w")
    n = gen.mono(target=w, prefix="y")
    g = gen.arrow_into(w, "z")
    pb = pullback(g, n, instance)
    ok = ok and phi(pb.p1, pb.p2, instance) == compose(bar(n, instance), g)
    return ok, lambda: {"m": _ser_morphism(m), "f": _ser_morphism(f),
                        "n": _ser_morphism(n), "g": _ser_morphism(g)}


def _law_complement_t0(gen, instance, inject):
    obj = inject if inject is not None else gen.object("l")
    comp, _ = strict_complement(t_object(obj, instance).unit, instance)
    t0 = t_object(initial_object(instance), instance).total
    ok = iso_search(comp, t0, instance) is not None
    return ok, lambda: {"object": docio.graph_doc(obj)}


def _law_complement_tl_iso(gen, instance, inject):
    l = inject if inject is not None else gen.morphism()
    unit_k = t_object(l.source, instance).unit
    unit_l = t_object(l.target, instance).unit
    arrow = complement_of_square(unit_k, l, unit_l, t_morphism(l, instance), instance)
    ok = validate_morphism(arrow, instance).is_iso
    return ok, lambda: {"l": _ser_morphism(l)}


def _law_locality(gen, instance, inject):
    rule = inject if inject is not None else gen.local_rule()
    m = gen.match_onto(rule.lhs)
    ok = is_local_rule(rule, instance)
    ok = ok and is_local_step(agree_step(rule, m, instance), instance)
    return ok, lambda: {"rule": docio.rule_doc(rule, instance), "match": _ser_morphism(m)}


def _law_fpbc_final(gen, instance, inject):
    l, m = inject if inject is not None else gen.fpbc_pair()
    fp = fpbc(l, m, instance)
    report = fpbc_verify(l, m, fp.n, fp.a, instance)
    return report.ok, lambda: {"l": _ser_morphism(l), "m": _ser_morphism(m),
                               "verify": {"bound": report.bound, "witness": report.counterexample}}


def _law_sqpo_agree(gen, instance, inject):
    rule = inject if inject is not None else gen.span_rule()
    m = gen.match_onto(rule.lhs)
    via_step = agree_step(rule, m, instance).result
    fp = fpbc(rule.l, m, instance)
    via_fpbc = pushout_along_mono(fp.n, rule.r, instance).result
    ok = iso_search(via_step, via_fpbc, instance) is not None
    return ok, lambda: {"rule": docio.rule_doc(rule, instance), "match": _ser_morphism(m)}


def _law_psqpo_agree(gen, instance, inject):
    rule = inject if inject is not None else gen.psqpo_rule()
    m = gen.match_onto(rule.lhs)
    via_pol = psqpo_step(rule, m).result
    via_lifted = agree_step(rule, m, instance).result
    ok = iso_search(via_pol, via_lifted, instance) is not None

    k = rule.interface
    full = psqpo_rule(rule.l, rule.r, k.nodes, k.nodes)
    via_full = psqpo_step(full, m).result
    fp = fpbc(rule.l, m, instance)
    via_sqpo = pushout_along_mono(fp.n, rule.r, instance).result
    ok = ok and iso_search(via_full, via_sqpo, instance) is not None
    return ok, lambda: {"rule": docio.rule_doc(rule, instance), "match": _ser_morphism(m)}


def _law_counit_iso(gen, instance, inject):
    l = inject if inject is not None else gen.morphism()
    unit_l = t_object(l.target, instance).unit
    unit_k = t_object(l.source, instance).unit
    pb = pullback(unit_l, t_morphism(l, instance), instance)
    j = pullback_mediator(pb, l, unit_k)
    ok = validate_morphism(j, instance).is_iso
    return ok, lambda: {"l": _ser_morphism(l)}


_ALL = ("gr", "typed", "grpol")
_SETTING_NAMES = {"gr": "plain", "typed": "typed", "grpol": "polarized"}

# Per law: its checker, its default number of instances, and the settings
# (instance kinds) it runs in.
LAWS = {
    "ETA_CARTESIAN": (_law_eta_cartesian, 200, _ALL),
    "PHI_UNIQUE": (_law_phi_unique, 200, _ALL),
    "PHI_DECOMP": (_law_phi_decomp, 200, _ALL),
    "COMPLEMENT_T0": (_law_complement_t0, 200, _ALL),
    "COMPLEMENT_TL_ISO": (_law_complement_tl_iso, 200, _ALL),
    "LOCALITY": (_law_locality, 100, ("gr", "typed")),
    "FPBC_FINAL": (_law_fpbc_final, 30, _ALL),
    "SQPO_AGREE": (_law_sqpo_agree, 100, ("gr", "typed")),
    "PSQPO_AGREE": (_law_psqpo_agree, 100, ("gr",)),
    "COUNIT_ISO": (_law_counit_iso, 200, _ALL),
}

LAW_IDS = tuple(LAWS)


def run_law(law_id: str, seed: int = 0, size_bound=(4, 5), instance: CategoryInstance = GR,
            count: Optional[int] = None, inject=None) -> LawReport:
    """Run one law over ``count`` seeded instances and report the outcome.

    ``inject`` replaces the first generated value, so known counterexamples
    can be replayed (negative controls).
    """
    if law_id not in LAWS:
        raise UnknownLawError(f"unknown law id {law_id!r}")
    checker, default_count, settings = LAWS[law_id]
    if instance.kind not in settings:
        names = " and ".join(_SETTING_NAMES[kind] for kind in settings)
        raise PreconditionError(f"{law_id} runs over {names} graphs")
    bound = _norm_bound(size_bound)
    count = default_count if count is None else count
    if not isinstance(count, int) or count < 0:
        raise PreconditionError(f"a law runs over a non-negative number of instances, got {count!r}")
    gen = _Gen(random.Random(f"{law_id}/{seed}"), bound, instance)

    failures = 0
    first = None
    for i in range(count):
        value = inject if (inject is not None and i == 0) else None
        ok, payload = checker(gen, instance, value)
        if not ok:
            failures += 1
            if first is None:
                first = payload()
    return LawReport(law_id, instance.kind, count, failures == 0, failures, first, seed, bound)


def generate(kind: str, seed: int, size_bound, instance: CategoryInstance = GR):
    """Deterministic random value of the requested kind.

    Kinds: ``graph``, ``mono``, ``morphism``, ``span-rule``, ``psqpo-rule``.
    """
    gen = _Gen(random.Random(f"{kind}/{seed}"), _norm_bound(size_bound), instance)
    if kind == "graph":
        return gen.object()
    if kind == "mono":
        return gen.mono()
    if kind == "morphism":
        return gen.morphism()
    if kind == "span-rule":
        return gen.span_rule()
    if kind == "psqpo-rule":
        return gen.psqpo_rule()
    raise PreconditionError(f"unknown generation kind {kind!r}")
