"""Acceptance suite: one test per criterion, one printed line each.

Scenario carriers live as JSON fixtures next to the package so every
criterion also exercises the documented file formats end to end.
"""

import json
import pathlib
import time

from agree import (
    GR,
    Graph,
    Morphism,
    fpbc,
    fpbc_verify,
    is_local_rule,
    is_local_step,
    iso_search,
    run_law,
    validate_morphism,
)
from agree.laws import default_instance
from agree.rewrite import agree_step, psqpo_step
from agree.io import parse_graph, parse_morphism, parse_rule

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _load(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _report(number, description, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _apply(rule_file, graph_file, match_file):
    rule, instance = parse_rule(_load(rule_file))
    host = parse_graph(_load(graph_file), instance.typegraph)
    match_instance = GR if rule.mode == "PSQPO" else instance
    m = parse_morphism(_load(match_file), source=rule.lhs, target=host)
    assert validate_morphism(m, match_instance).is_mono_in_M
    if rule.mode == "PSQPO":
        return psqpo_step(rule, m), instance
    return agree_step(rule, m, instance), instance


def _edge_triples(obj):
    g = obj
    types = obj.edge_labels or {}
    return sorted((g.src[e], g.tgt[e], types.get(e)) for e in g.src)


def test_criterion_1_delete_and_clone_scenarios():
    expectations = {
        "delete_node_rule.json": Graph.build(["a", "b"]),
        "clone_node_rule.json": Graph.build(
            ["a", "v", "c", "b"],
            {"e1": ("a", "v"), "e2": ("a", "c"), "e3": ("v", "b"), "e4": ("c", "b")}),
        "clone_outgoing_rule.json": Graph.build(
            ["a", "v", "c", "b"],
            {"e1": ("a", "v"), "e2": ("v", "b"), "e3": ("c", "b")}),
    }
    ok = True
    for rule_file, expected in expectations.items():
        start = time.perf_counter()
        trace, _ = _apply(rule_file, "chain_graph.json", "match_v.json")
        elapsed = time.perf_counter() - start
        ok = ok and iso_search(trace.result, expected, GR) is not None
        ok = ok and elapsed < 1.0
    _report(1, "delete/clone/outgoing-clone produce the three expected results", ok)


def test_criterion_2_nonlocal_embedding_deletes_unmatched():
    trace, instance = _apply("nonlocal_keep_one_rule.json",
                             "three_elements_graph.json", "element_match.json")
    ok = len(trace.result.nodes) == 1
    ok = ok and not is_local_rule(trace.rule, instance)
    ok = ok and not is_local_step(trace, instance)
    _report(2, "identity embedding keeps one element, drops the rest, flagged non-local", ok)


def test_criterion_3_web_page_copy_clones_out_links_only():
    trace, instance = _apply("web_copy_rule.json", "web_graph.json", "web_match.json")
    host = parse_graph(_load("web_graph.json"), instance.typegraph)
    g_host = host

    # surviving representative of every host node
    unmatched_repr = {}
    for d_node, g_node in trace.g.nodemap.items():
        if g_node != "v":
            unmatched_repr[g_node] = trace.h.nodemap[d_node]
    rep = dict(unmatched_repr)
    rep["v"] = trace.p.nodemap["p0"]
    clone = trace.p.nodemap["p1"]

    expected = [
        (rep[g_host.src[e]], rep[g_host.tgt[e]], host.edge_labels[e])
        for e in g_host.src
    ]
    expected.append((clone, rep["w"], "link"))  # the only out-link of v, copied
    ok = _edge_triples(trace.result) == sorted(expected)
    incident_to_clone = [t for t in _edge_triples(trace.result) if clone in (t[0], t[1])]
    ok = ok and incident_to_clone == [(clone, rep["w"], "link")]
    _report(3, "page copy keeps context links and gives the clone only out-link copies", ok)


def test_criterion_4_classifier_law_suite_under_a_minute():
    laws = ("ETA_CARTESIAN", "PHI_UNIQUE", "PHI_DECOMP",
            "COMPLEMENT_T0", "COMPLEMENT_TL_ISO", "COUNIT_ISO")
    start = time.perf_counter()
    ok = True
    for category in ("gr", "typed"):
        instance = default_instance(category)
        for law in laws:
            total = 0
            for seed in range(5):
                rep = run_law(law, seed=seed, size_bound=(4, 5), instance=instance, count=40)
                ok = ok and rep.passed
                total += rep.count
            ok = ok and total >= 200
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(4, f"six classifier laws x two categories x 200 instances in {elapsed:.1f}s", ok)


def test_criterion_5_fpbc_finality_oracle():
    ok = True
    for seed in range(5):
        rep = run_law("FPBC_FINAL", seed=seed, size_bound=(3, 3), instance=GR, count=20)
        ok = ok and rep.passed

    # mutants: a padded complement must be rejected
    host = parse_graph(_load("chain_graph.json"))
    rule, _ = parse_rule(_load("clone_node_rule.json"))
    m = parse_morphism(_load("match_v.json"), source=rule.lhs, target=host)
    fp = fpbc(rule.l, m, GR)
    d = fp.context
    padded = Graph(d.nodes | {"ghost"}, dict(d.src), dict(d.tgt))
    n2 = Morphism(fp.n.source, padded, dict(fp.n.nodemap), dict(fp.n.edgemap))
    for image in ("a", "v"):
        a2 = Morphism(padded, host, dict(fp.a.nodemap, ghost=image), dict(fp.a.edgemap))
        ok = ok and not fpbc_verify(rule.l, m, n2, a2, GR).ok
    _report(5, "100 random complements verified final at default bound; mutants rejected", ok)


def test_criterion_6_plain_cloning_pipelines_agree():
    ok = True
    for seed in range(5):
        rep = run_law("SQPO_AGREE", seed=seed, size_bound=(4, 4), instance=GR, count=20)
        ok = ok and rep.passed
    _report(6, "step construction matches the independent complement-then-pushout pipeline", ok)


def test_criterion_7_polarized_cloning_pipelines_agree():
    ok = True
    for seed in range(5):
        rep = run_law("PSQPO_AGREE", seed=seed, size_bound=(4, 4), instance=GR, count=20)
        ok = ok and rep.passed
    _report(7, "polarized steps match their lifted rules; full polarity matches plain cloning", ok)


def test_criterion_8_local_rules_give_local_steps():
    ok = True
    for seed in range(5):
        rep = run_law("LOCALITY", seed=seed, size_bound=(4, 4), instance=GR, count=20)
        ok = ok and rep.passed

    # negative control: the criterion-2 rule must be flagged
    rule, instance = parse_rule(_load("nonlocal_keep_one_rule.json"))
    rep = run_law("LOCALITY", seed=0, size_bound=(3, 3), instance=instance,
                  count=3, inject=rule)
    ok = ok and not rep.passed and rep.first_counterexample is not None
    _report(8, "100 random local rules rewrite locally; the non-local control fails", ok)


def test_criterion_9_network_anonymization():
    trace, instance = _apply("anonymize_rule.json", "network_graph.json",
                             "network_match.json")
    host = parse_graph(_load("network_graph.json"), instance.typegraph)
    g_host = host
    ok = len(g_host.nodes) == 6

    rep = {}
    for d_node, g_node in trace.g.nodemap.items():
        if g_node in ("A", "u5"):
            rep[g_node] = trace.h.nodemap[d_node]
    for i in range(1, 5):
        rep[f"u{i}"] = trace.p.nodemap[f"x{i}"]
    clones = {f"u{i}": trace.p.nodemap[f"c{i}"] for i in range(1, 5)}
    marker = trace.p.nodemap["s"]

    expected = [
        (rep[g_host.src[e]], rep[g_host.tgt[e]], host.edge_labels[e])
        for e in g_host.src
    ]
    # public links whose two endpoints are both matched are mirrored on the clones
    for e in g_host.src:
        if host.edge_labels[e] == "pub" and g_host.src[e] in clones and g_host.tgt[e] in clones:
            expected.append((clones[g_host.src[e]], clones[g_host.tgt[e]], "pub"))
    expected.extend((marker, clones[f"u{i}"], "marks") for i in range(1, 5))

    actual = _edge_triples(trace.result)
    ok = ok and actual == sorted(expected)
    clone_ids = set(clones.values())
    priv_near_clones = [t for t in actual if t[2] == "priv" and (t[0] in clone_ids or t[1] in clone_ids)]
    ok = ok and not priv_near_clones
    mirrored = [t for t in actual if t[2] == "pub" and t[0] in clone_ids]
    ok = ok and len(mirrored) == 3
    _report(9, "four-node clone mirrors matched public links only, adds the marker node", ok)
