"""Match enumeration, rewrite steps, complements and locality."""

import json
import pathlib

import pytest

import agree.classifier
import agree.core
from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    PolarizedGraph,
    PreconditionError,
    RuleError,
    TypedGraph,
    agree_rule,
    agree_step,
    bar,
    complement_of_square,
    compose,
    enumerate_matches,
    fpbc,
    fpbc_verify,
    identity,
    is_local_rule,
    is_local_step,
    is_pullback_square,
    iso_search,
    pol_induce,
    psqpo_rule,
    psqpo_step,
    pushout_along_mono,
    set_category,
    sqpo_rule,
    strict_complement,
    validate_morphism,
)
from agree.io import dumps, export_dot, parse_graph, parse_morphism, parse_rule, trace_doc
from agree.laws import _Gen

import random

import square_reference
from helpers import naive_monos


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


FIG_HOST = Graph.build(["a", "v", "b"], {"av": ("a", "v"), "vb": ("v", "b")})
POINT = Graph.build(["x"])
TWO_COPIES = Graph.build(["k0", "k1"])
CLONE_L = Morphism(TWO_COPIES, POINT, {"k0": "x", "k1": "x"}, {})
MATCH_V = Morphism(POINT, FIG_HOST, {"x": "v"}, {})


def delete_rule():
    empty = Graph.build([])
    return sqpo_rule(Morphism(empty, POINT, {}, {}), identity(empty), GR)


def clone_rule():
    return sqpo_rule(CLONE_L, identity(TWO_COPIES), GR)


def outgoing_clone_rule():
    return psqpo_rule(CLONE_L, identity(TWO_COPIES), ["k0", "k1"], ["k0"])


def edge_multiset(obj):
    g = obj
    return sorted((g.src[e], g.tgt[e]) for e in g.src)


class TestEnumerateMatches:
    def test_single_node_into_discrete(self):
        matches = enumerate_matches(POINT, Graph.build(["a", "b", "c"]), GR)
        assert len(matches) == 3
        assert [m.nodemap["x"] for m in matches] == ["a", "b", "c"]

    def test_edge_into_triangle(self):
        lhs = Graph.build(["a", "b"], {"e": ("a", "b")})
        tri = Graph.build(["x", "y", "z"],
                          {"e1": ("x", "y"), "e2": ("y", "z"), "e3": ("z", "x")})
        matches = enumerate_matches(lhs, tri, GR)
        assert len(matches) == 3
        # oracle: the naive product enumeration finds the same monos
        assert matches == sorted(
            naive_monos(lhs, tri, GR),
            key=lambda m: tuple(m.nodemap[x] for x in sorted(lhs.nodes)),
        )

    def test_oversized_pattern(self):
        assert enumerate_matches(Graph.build(["a", "b"]), POINT, GR) == []

    def test_strictness_filters_polarized_matches(self):
        lhs = PolarizedGraph(Graph.build(["p"]), frozenset(["p"]), frozenset())
        host = PolarizedGraph(Graph.build(["u", "w"]), frozenset(["u", "w"]),
                              frozenset(["w"]))
        matches = enumerate_matches(lhs, host, GRPOL)
        assert [m.nodemap["p"] for m in matches] == ["u"]


class TestAgreeStep:
    def test_identity_rule_preserves_host(self):
        rule = sqpo_rule(identity(POINT), identity(POINT), GR)
        tr = agree_step(rule, MATCH_V, GR)
        assert iso_search(tr.result, FIG_HOST, GR) is not None

    def test_nonlocal_deletion_of_unmatched_elements(self):
        inst = set_category()
        tg = inst.typegraph

        def elems(ids):
            g = Graph.build(ids)
            return TypedGraph(g, tg, Morphism(g, tg, {i: "elem" for i in ids}, {}))

        lhs = elems(["x"])
        rule = agree_rule(identity(lhs), identity(lhs), identity(lhs), inst)
        host = elems(["x", "y", "z"])
        tr = agree_step(rule, Morphism(lhs, host, {"x": "x"}, {}), inst)
        assert len(tr.result.nodes) == 1
        assert not is_local_rule(rule, inst)
        assert not is_local_step(tr, inst)

    def test_outgoing_only_clone(self):
        tr = agree_step(outgoing_clone_rule(), MATCH_V, GR)
        expected = Graph.build(
            ["a", "v", "c", "b"],
            {"e1": ("a", "v"), "e2": ("v", "b"), "e3": ("c", "b")})
        assert iso_search(tr.result, expected, GR) is not None

    def test_trace_invariants_on_random_steps(self):
        gen = _Gen(random.Random("steps"), (3, 3), GR)
        for _ in range(25):
            rule = gen.span_rule()
            m = gen.match_onto(rule.lhs)
            tr = agree_step(rule, m, GR)
            assert compose(tr.n_prime, tr.n) == rule.t
            assert compose(tr.g, tr.n) == compose(m, rule.l)
            assert is_pullback_square(rule.l, tr.n, m, tr.g, GR)
            assert validate_morphism(tr.n, GR).is_mono_in_M
            assert compose(tr.h, tr.n) == compose(tr.p, rule.r)
            # the mediating embedding pairs match image with embedding image
            for k in rule.interface.nodes:
                pair = f"({m.nodemap[rule.l.nodemap[k]]},{rule.t.nodemap[k]})"
                assert tr.n.nodemap[k] == pair

    def test_non_mono_match_rejected(self):
        rule = sqpo_rule(identity(TWO_COPIES), identity(TWO_COPIES), GR)
        squash = Morphism(TWO_COPIES, POINT, {"k0": "x", "k1": "x"}, {})
        with pytest.raises(PreconditionError):
            agree_step(rule, squash, GR)


class TestRefusals:
    """Rules and steps the API refuses, each with its error class and message."""

    def test_rule_arrows_must_share_their_source(self):
        with pytest.raises(RuleError) as caught:
            agree_rule(CLONE_L, identity(POINT), identity(TWO_COPIES), GR)
        assert str(caught.value) == "rule arrows must share their source"

    def test_rule_arrows_must_be_valid(self):
        with pytest.raises(RuleError) as caught:
            sqpo_rule(Morphism(TWO_COPIES, POINT, {"k0": "x"}, {}), identity(TWO_COPIES), GR)
        assert str(caught.value) == \
            "rule arrow l is not a valid morphism: ('nodemap is not total on the source nodes',)"
        with pytest.raises(RuleError) as caught:
            psqpo_rule(CLONE_L, Morphism(TWO_COPIES, TWO_COPIES, {"k1": "k1"}, {}), ["k0"], ["k1"])
        assert str(caught.value) == \
            "rule arrow r is not a valid morphism: ('nodemap is not total on the source nodes',)"

    def test_rule_embedding_must_be_an_admissible_mono(self):
        with pytest.raises(RuleError) as caught:
            agree_rule(CLONE_L, identity(TWO_COPIES), CLONE_L, GR)
        assert str(caught.value) == "rule embedding must be an admissible mono"

    def test_polarized_rules_need_a_plain_interface(self):
        k = pol_induce(TWO_COPIES)
        with pytest.raises(RuleError) as caught:
            psqpo_rule(Morphism(k, pol_induce(POINT), CLONE_L.nodemap, {}), identity(k), ["k0"], ["k0"])
        assert str(caught.value) == "polarized rules live over plain graphs"

    def test_match_must_start_at_the_left_hand_side(self):
        elsewhere = Morphism(Graph.build(["y"]), FIG_HOST, {"y": "v"}, {})
        with pytest.raises(PreconditionError) as caught:
            agree_step(clone_rule(), elsewhere, GR)
        assert str(caught.value) == "match must start at the rule's left-hand side"
        with pytest.raises(PreconditionError) as caught:
            psqpo_step(outgoing_clone_rule(), elsewhere)
        assert str(caught.value) == "match must start at the rule's left-hand side"

    def test_agree_step_refuses_polarized_graphs(self):
        point = pol_induce(POINT)
        with pytest.raises(PreconditionError) as caught:
            agree_step(sqpo_rule(identity(point), identity(point), GRPOL), pol_induce(MATCH_V), GRPOL)
        assert str(caught.value) == "polarized rewriting goes through psqpo_step"


class TestFpbc:
    def test_identity_lhs_gives_host_back(self):
        fp = fpbc(identity(POINT), MATCH_V, GR)
        assert validate_morphism(fp.a, GR).is_iso

    def test_deletion_drops_incident_edges(self):
        empty = Graph.build([])
        fp = fpbc(Morphism(empty, POINT, {}, {}), MATCH_V, GR)
        d = fp.context
        assert len(d.nodes) == 2 and not d.src

    def test_clone_copies_all_incident_edges(self):
        fp = fpbc(CLONE_L, MATCH_V, GR)
        d = fp.context
        assert len(d.nodes) == 4 and len(d.src) == 4
        expected = Graph.build(
            ["a", "v", "c", "b"],
            {"e1": ("a", "v"), "e2": ("a", "c"), "e3": ("v", "b"), "e4": ("c", "b")})
        assert iso_search(fp.context, expected, GR) is not None

    def test_verify_accepts_construction(self):
        gen = _Gen(random.Random("fpbc"), (3, 3), GR)
        for _ in range(15):
            l, m = gen.fpbc_pair()
            fp = fpbc(l, m, GR)
            report = fpbc_verify(l, m, fp.n, fp.a, GR)
            assert report.ok, report.counterexample

    def test_verify_rejects_padded_context(self):
        fp = fpbc(CLONE_L, MATCH_V, GR)
        d = fp.context
        padded = Graph(d.nodes | {"ghost"}, dict(d.src), dict(d.tgt))
        n2 = Morphism(fp.n.source, padded, dict(fp.n.nodemap), dict(fp.n.edgemap))
        a2 = Morphism(padded, FIG_HOST, dict(fp.a.nodemap, ghost="a"), dict(fp.a.edgemap))
        report = fpbc_verify(CLONE_L, MATCH_V, n2, a2, GR)
        assert not report.ok
        assert report.counterexample

    def test_verify_rejects_padding_over_matched_part(self):
        fp = fpbc(CLONE_L, MATCH_V, GR)
        d = fp.context
        padded = Graph(d.nodes | {"ghost"}, dict(d.src), dict(d.tgt))
        n2 = Morphism(fp.n.source, padded, dict(fp.n.nodemap), dict(fp.n.edgemap))
        a2 = Morphism(padded, FIG_HOST, dict(fp.a.nodemap, ghost="v"), dict(fp.a.edgemap))
        report = fpbc_verify(CLONE_L, MATCH_V, n2, a2, GR)
        assert not report.ok
        assert report.counterexample == {"reason": "square is not a pullback"}

    def test_empty_interface_matches_strict_complement(self):
        # deleting the whole image leaves exactly the strict complement
        gen = _Gen(random.Random("comp"), (3, 3), GR)
        for _ in range(15):
            lhs = gen.object("l")
            m = gen.match_onto(lhs)
            empty = Graph.build([])
            fp = fpbc(Morphism(empty, lhs, {}, {}), m, GR)
            comp, _ = strict_complement(m, GR)
            assert iso_search(fp.context, comp, GR) is not None

    def test_two_complements_related_by_unique_iso(self):
        fp = fpbc(CLONE_L, MATCH_V, GR)
        relabled = {n: f"r_{n}" for n in fp.context.nodes}
        redges = {e: f"r_{e}" for e in fp.context.src}
        d = fp.context
        other = Graph(frozenset(relabled.values()),
                      {redges[e]: relabled[d.src[e]] for e in d.src},
                      {redges[e]: relabled[d.tgt[e]] for e in d.src})
        n2 = Morphism(fp.n.source, other, {k: relabled[v] for k, v in fp.n.nodemap.items()},
                      {k: redges[v] for k, v in fp.n.edgemap.items()})
        a2 = Morphism(other, FIG_HOST, {relabled[k]: v for k, v in fp.a.nodemap.items()},
                      {redges[k]: v for k, v in fp.a.edgemap.items()})
        isos = [
            j for j in naive_monos(fp.context, other, GR)
            if validate_morphism(j, GR).is_iso
            and compose(a2, j) == fp.a and compose(j, fp.n) == n2
        ]
        assert len(isos) == 1


class TestPsqpo:
    def test_full_polarity_agrees_with_plain_cloning(self):
        k = TWO_COPIES
        full = psqpo_rule(CLONE_L, identity(k), k.nodes, k.nodes)
        tr_full = psqpo_step(full, MATCH_V)
        tr_sqpo = agree_step(clone_rule(), MATCH_V, GR)
        assert iso_search(tr_full.result, tr_sqpo.result, GR) is not None

    def test_outgoing_only_clone_via_polarized_phase(self):
        tr = psqpo_step(outgoing_clone_rule(), MATCH_V)
        assert edge_multiset(tr.result) == sorted(
            [("D:(a,*)", "R:k0"), ("R:k0", "D:(b,*)"), ("R:k1", "D:(b,*)")])

    def test_empty_polarity_clone_gets_no_context_edges(self):
        rule = psqpo_rule(CLONE_L, identity(TWO_COPIES), ["k0"], ["k0"])
        tr = psqpo_step(rule, MATCH_V)
        degree = {}
        h = tr.result
        copy = tr.p.nodemap["k1"]
        for e in h.src:
            degree[h.src[e]] = degree.get(h.src[e], 0) + 1
            degree[h.tgt[e]] = degree.get(h.tgt[e], 0) + 1
        assert copy not in degree

    def test_agrees_with_lifted_rule(self):
        gen = _Gen(random.Random("psqpo"), (3, 3), GR)
        for _ in range(20):
            rule = gen.psqpo_rule()
            m = gen.match_onto(rule.lhs)
            assert iso_search(psqpo_step(rule, m).result,
                              agree_step(rule, m, GR).result, GR) is not None

    def test_match_is_classified_once(self, monkeypatch):
        """A step classifies its match once, over polarized graphs, and the
        trace's ``m_bar`` is that arrow with polarity dropped: its maps are
        the classified arrow's own, and equal ``bar(m, GR)`` item for item
        and in the same insertion order."""
        real = agree.classifier._classify
        calls = []

        def recording(m, instance):
            out = real(m, instance)
            calls.append((m, instance, out))
            return out

        monkeypatch.setattr(agree.classifier, "_classify", recording)
        gen = _Gen(random.Random("psqpo/classified"), (3, 4), GR)
        for _ in range(5):
            rule = gen.psqpo_rule()
            m = gen.match_onto(rule.lhs, extra_nodes=200, extra_edges=600)
            calls.clear()
            tr = psqpo_step(rule, m)
            assert [(mhat, instance) for mhat, instance, _ in calls] == [(pol_induce(m), GRPOL)]
            kept = calls[0][2]
            assert tr.m_bar.nodemap is kept.nodemap and tr.m_bar.edgemap is kept.edgemap
            fresh = bar(Morphism(m.source, m.target, m.nodemap, m.edgemap), GR)
            assert tr.m_bar == fresh
            assert list(tr.m_bar.nodemap.items()) == list(fresh.nodemap.items())
            assert list(tr.m_bar.edgemap.items()) == list(fresh.edgemap.items())
            assert len(m.target.nodes) >= 200

    def test_mode_is_checked(self):
        with pytest.raises(RuleError):
            psqpo_step(clone_rule(), MATCH_V)

    def test_agree_step_gives_what_psqpo_step_gives(self):
        """``agree apply`` runs a PSQPO rule through ``agree_step`` on the
        embedding ``psqpo_rule`` materialized.  Its H, trace and DOT text
        are those of the polarized construction, and so is the insertion
        order of D's edges and of both maps of every trace arrow."""
        rule, _ = parse_rule(_fixture("clone_outgoing_rule"))
        host = parse_graph(_fixture("chain_graph"))
        cases = [(rule, parse_morphism(_fixture("match_v"), source=rule.lhs, target=host))]
        for bound, draws in (((3, 3), 100), ((4, 5), 100), ((5, 7), 100)):
            gen = _Gen(random.Random(f"psqpo/one-path/{bound}"), bound, GR)
            for _ in range(draws):
                rule = gen.psqpo_rule()
                extra = gen.rng.randint(0, 6), gen.rng.randint(0, 12)
                cases.append((rule, gen.match_onto(rule.lhs, extra_nodes=extra[0], extra_edges=extra[1])))
        assert sum(len(m.target.nodes) > len(m.source.nodes) for _, m in cases) > 200
        for rule, m in cases:
            polar, plain = psqpo_step(rule, m), agree_step(rule, m, GR)
            assert dumps(plain.result) == dumps(polar.result)
            assert dumps(trace_doc(plain)) == dumps(trace_doc(polar))
            assert export_dot(plain) == export_dot(polar)
            d_plain, d_polar = plain.context, polar.context
            assert list(d_plain.src.items()) == list(d_polar.src.items())
            assert list(d_plain.tgt.items()) == list(d_polar.tgt.items())
            arrows = zip(trace_doc(plain)["arrows"].items(), trace_doc(polar)["arrows"].items())
            for (name, f), (polar_name, g) in arrows:
                assert name == polar_name
                assert list(f.nodemap.items()) == list(g.nodemap.items()), name
                assert list(f.edgemap.items()) == list(g.edgemap.items()), name


class TestStrictComplement:
    def test_of_identity_is_empty(self):
        comp, _ = strict_complement(identity(FIG_HOST), GR)
        assert not comp.nodes

    def test_of_empty_is_everything(self):
        empty = Graph.build([])
        comp, incl = strict_complement(Morphism(empty, FIG_HOST, {}, {}), GR)
        assert iso_search(comp, FIG_HOST, GR) is not None
        assert validate_morphism(incl, GR).is_iso

    def test_interior_node_takes_incident_edges_with_it(self):
        comp, incl = strict_complement(MATCH_V, GR)
        assert comp.nodes == frozenset(["a", "b"])
        assert not comp.src
        assert validate_morphism(incl, GR).is_mono_in_M

    def test_polarized_complement_keeps_capabilities(self):
        host = PolarizedGraph(FIG_HOST, frozenset(["a", "v"]), frozenset(["v", "b"]))
        lhs = PolarizedGraph(POINT, frozenset(["x"]), frozenset(["x"]))
        comp, _ = strict_complement(Morphism(lhs, host, {"x": "v"}, {}), GRPOL)
        assert comp.node_labels == {"a": frozenset(["+"]), "b": frozenset(["-"])}


class TestComplementOfSquare:
    def test_identity_square(self):
        arrow = complement_of_square(identity(POINT), identity(POINT),
                                     identity(POINT), identity(POINT), GR)
        assert validate_morphism(arrow, GR).is_iso

    def test_local_step_restricts_to_iso(self):
        tr = agree_step(outgoing_clone_rule(), MATCH_V, GR)
        arrow = complement_of_square(tr.n, tr.rule.l, tr.match, tr.g, GR)
        assert validate_morphism(arrow, GR).is_iso

    def test_nonlocal_step_complement_not_iso(self):
        inst = set_category()
        tg = inst.typegraph

        def elems(ids):
            g = Graph.build(ids)
            return TypedGraph(g, tg, Morphism(g, tg, {i: "elem" for i in ids}, {}))

        lhs = elems(["x"])
        rule = agree_rule(identity(lhs), identity(lhs), identity(lhs), inst)
        host = elems(["x", "y", "z"])
        tr = agree_step(rule, Morphism(lhs, host, {"x": "x"}, {}), inst)
        arrow = complement_of_square(tr.n, tr.rule.l, tr.match, tr.g, inst)
        assert not arrow.source.nodes
        assert arrow.target.nodes == frozenset(["y", "z"])
        assert not validate_morphism(arrow, inst).is_iso


class TestLocality:
    def test_unit_embedding_is_local(self):
        assert is_local_rule(clone_rule(), GR)
        assert is_local_rule(delete_rule(), GR)

    def test_identity_embedding_is_not_local(self):
        rule = agree_rule(identity(POINT), identity(POINT), identity(POINT), GR)
        assert not is_local_rule(rule, GR)

    def test_local_rules_give_local_steps(self):
        gen = _Gen(random.Random("local"), (3, 3), GR)
        for _ in range(25):
            rule = gen.local_rule()
            assert is_local_rule(rule, GR)
            m = gen.match_onto(rule.lhs)
            assert is_local_step(agree_step(rule, m, GR), GR)

    def test_sqpo_pipeline_agreement(self):
        gen = _Gen(random.Random("agree"), (3, 3), GR)
        for _ in range(20):
            rule = gen.span_rule()
            m = gen.match_onto(rule.lhs)
            h1 = agree_step(rule, m, GR).result
            fp = fpbc(rule.l, m, GR)
            h2 = pushout_along_mono(fp.n, rule.r, GR).result
            assert iso_search(h1, h2, GR) is not None


# -- what a step validates ------------------------------------------------------------

def _large_host(rng, typegraph=None, n=2000):
    """A seeded host with ``n`` nodes and ``3n`` edges, typed over the
    one-node ``typegraph`` if given."""
    nodes = [f"n{i:04d}" for i in range(n)]
    edges = {f"e{i:04d}": (rng.choice(nodes), rng.choice(nodes)) for i in range(3 * n)}
    if typegraph is None:
        return Graph.build(nodes, edges)
    (node_type,) = typegraph.nodes
    edge_types = {e: rng.choice(sorted(typegraph.src)) for e in edges}
    return Graph.build(nodes, edges, dict.fromkeys(nodes, node_type), edge_types, typegraph)


# The |K|=8 identity rule of the apply-large benchmark.
K8 = Graph.build([f"k{i}" for i in range(8)])


@pytest.mark.parametrize("rule_name", [
    "clone_node_rule", "clone_outgoing_rule", "delete_node_rule", "web_copy_rule", "identity",
])
def test_a_step_validates_no_host_sized_arrow(rule_name, monkeypatch):
    """On a 2,000-node host, a step computes no validation report for an
    arrow out of G or D: ``m̄`` and the projection ``g`` are valid by
    construction, and the left square is checked by its fibres alone.
    The suite's reference for squares validates their arrows itself, so
    reports computed while it runs are not counted."""
    if rule_name == "identity":
        rule, instance = sqpo_rule(identity(K8), identity(K8), GR), GR
    else:
        rule, instance = parse_rule(_fixture(rule_name))
    rng = random.Random(f"validates/{rule_name}")
    host = _large_host(rng, instance.typegraph)
    picked = rng.sample(sorted(host.nodes), len(rule.lhs.nodes))
    m = Morphism(rule.lhs, host, dict(zip(sorted(rule.lhs.nodes), picked)), {})
    reference, report = square_reference.is_pullback_square, agree.core._report
    in_reference, sources = [], []

    def unrecorded(*args):
        in_reference.append(True)
        try:
            return reference(*args)
        finally:
            in_reference.pop()

    def recording(f, leq):
        if not in_reference:
            sources.append(f.source)
        return report(f, leq)

    monkeypatch.setattr(square_reference, "is_pullback_square", unrecorded)
    monkeypatch.setattr(agree.core, "_report", recording)
    trace = agree_step(rule, m, instance)
    assert sources
    assert not [s for s in sources if s is host or s is trace.context]
