"""Tests of the benchmark's own code: seeded inputs, independent checks,
workload definitions and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import calib
import checks
import inputs
import run
import workloads
from tracer import Tracer

from agree import GR, enumerate_matches
from agree.cli import _LAW_CATEGORIES, main as cli_main
from agree.io import parse_graph
from agree.laws import LAW_IDS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
FIXTURES = os.path.join(ROOT, "fixtures")


def _fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def _canonical(doc):
    """Lists compared as multisets, so member order in a document does not matter."""
    if isinstance(doc, dict):
        return {k: _canonical(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return sorted((_canonical(x) for x in doc), key=lambda x: json.dumps(x, sort_keys=True))
    return doc


def _apply(tmp_path, rule, graph, match):
    paths = {}
    for name, doc in (("rule", rule), ("graph", graph), ("match", match)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(inputs.dump(doc), encoding="utf-8")
    out = tmp_path / "H.json"
    argv = ["apply", "--rule", str(paths["rule"]), "--graph", str(paths["graph"]),
            "--match", str(paths["match"]), "--out", str(out)]
    assert cli_main(argv) == 0
    return json.loads(out.read_text(encoding="utf-8"))


# -- seeded inputs ------------------------------------------------------------------


def _input_digest(workload_name, seed, indices, workdir):
    wl = workloads.WORKLOADS[workload_name](seed, str(workdir))
    h = hashlib.sha256()
    for index in indices:
        op = wl.prepare(index)
        h.update(repr((op.kind, op.law, op.expect)).encode())
        for arg in op.argv:
            if arg.startswith(str(workdir)) and os.path.exists(arg) and arg != op.out:
                with open(arg, "rb") as fh:
                    h.update(fh.read())
            else:
                h.update(arg.replace(str(workdir), "<dir>").encode())
    return h.hexdigest()


DIGEST_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}]
import test_bench
print(test_bench._input_digest({name!r}, 5, range({count}), {workdir!r}))
"""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs_under_any_hash_seed(name, tmp_path):
    count = {"apply-large": 5, "match-medium": 6, "laws-small": 30}[name]
    digests = set()
    for hash_seed in ("1", "12345"):
        workdir = tmp_path / f"h{hash_seed}"
        workdir.mkdir()
        script = DIGEST_SCRIPT.format(bench=os.path.join(BENCH, "tests"), name=name,
                                      count=count, workdir=str(workdir))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.add(out.stdout.strip().splitlines()[-1])
    assert len(digests) == 1


def test_different_seeds_give_different_inputs(tmp_path):
    assert (_input_digest("apply-large", 1, range(2), tmp_path)
            != _input_digest("apply-large", 2, range(2), tmp_path))


def test_every_op_gets_its_own_host():
    hosts = [inputs.dump(inputs.plain_host(inputs.rng_for("apply-large", 0, i), 50, 150))
             for i in range(5)]
    assert len(set(hosts)) == len(hosts)


def test_rule_documents_equal_the_shipped_fixtures():
    for name, doc in (("clone_node_rule", inputs.clone_node_rule()),
                      ("clone_outgoing_rule", inputs.clone_outgoing_rule()),
                      ("delete_node_rule", inputs.delete_node_rule()),
                      ("web_copy_rule", inputs.web_copy_rule()),
                      ("chain_graph", inputs.chain_graph()),
                      ("web_graph", inputs.web_graph())):
        assert _canonical(doc) == _canonical(_fixture(f"{name}.json")), name


def test_law_pairs_are_the_cli_pairs_without_fpbc_final():
    allowed = [(law, cat) for cat, kind in (("gr", "gr"), ("typed", "typed"), ("pol", "grpol"))
               for law in LAW_IDS if kind in _LAW_CATEGORIES.get(law, ("gr", "typed", "grpol"))]
    assert len(allowed) == 25
    assert list(workloads.LAW_PAIRS) == [p for p in allowed if p[0] != "FPBC_FINAL"]


# -- independent checks on the shipped fixtures ----------------------------------------


@pytest.mark.parametrize("rule, graph, match, kind, node", [
    ("clone_node_rule.json", "chain_graph.json", "match_v.json", "clone", "v"),
    ("clone_outgoing_rule.json", "chain_graph.json", "match_v.json", "clone_out", "v"),
    ("delete_node_rule.json", "chain_graph.json", "match_v.json", "delete", "v"),
    ("web_copy_rule.json", "web_graph.json", "web_match.json", "web_copy", "v"),
])
def test_count_check_accepts_engine_output_on_fixtures(tmp_path, rule, graph, match, kind, node):
    host = _fixture(graph)
    result = _apply(tmp_path, _fixture(rule), host, _fixture(match))
    assert checks.graph_counts(result) == checks.expected_h_counts(kind, host, node)


@pytest.mark.parametrize("kind, rule, matched, typed", workloads.APPLY_RULES,
                         ids=[r[0] for r in workloads.APPLY_RULES])
def test_count_check_accepts_engine_output_on_loopy_hosts(tmp_path, kind, rule, matched, typed):
    # Small dense hosts, so that loops and parallel edges at the match occur.
    for seed in range(4):
        rng = inputs.rng_for("loopy", kind, seed)
        host = (inputs.typed_host(rng, 9, 30, inputs.WEB_TYPEGRAPH) if typed
                else inputs.plain_host(rng, 9, 30))
        picked = rng.sample([x["id"] for x in host["nodes"]], matched)
        lhs = sorted(x["id"] for x in rule["L"]["nodes"])
        result = _apply(tmp_path, rule, host, {"nodes": dict(zip(lhs, picked)), "edges": {}})
        assert checks.graph_counts(result) == checks.expected_h_counts(kind, host, picked[0])


def test_checks_reject_wrong_output(tmp_path):
    from worker import Engine

    engine = Engine()
    apply_wl = workloads.ApplyLarge(0, str(tmp_path))
    op = apply_wl.prepare(2)
    assert apply_wl.check(op, apply_wl.execute(op, engine)) is None
    nodes, edges = op.expect
    op.expect = (nodes, edges + 1)
    assert apply_wl.check(op, 0) is not None

    match_wl = workloads.MatchMedium(0, str(tmp_path))
    op = match_wl.prepare(0)
    assert match_wl.check(op, match_wl.execute(op, engine)) is None
    op.expect[0], op.expect[1] = op.expect[1], op.expect[0]
    assert match_wl.check(op, 0) is not None
    assert match_wl.check(op, 3) == "exit code 3"


@pytest.mark.parametrize("pattern, rule, n, typegraph", workloads.MATCH_PATTERNS,
                         ids=[p[0] for p in workloads.MATCH_PATTERNS])
def test_match_check_equals_engine_order_and_networkx_count(pattern, rule, n, typegraph):
    from agree.io import morphism_doc, parse_rule

    size = 12
    for seed in range(3):
        rng = inputs.rng_for("matches", pattern, seed)
        host = (inputs.typed_host(rng, size, 3 * size, typegraph) if typegraph
                else inputs.plain_host(rng, size, 3 * size))
        parsed, instance = parse_rule(rule)
        g = parse_graph(host, instance.typegraph)
        engine = [morphism_doc(m) for m in enumerate_matches(parsed.lhs, g, instance)]
        expected = checks.expected_matches(pattern, host)
        assert engine == expected
        pytest.importorskip("networkx")
        assert checks.nx_match_count(pattern, host) == len(expected)


def test_workload_ops_pass_their_checks(tmp_path):
    from worker import Engine

    engine = Engine()
    for name, indices in (("apply-large", range(5)), ("match-medium", range(6)),
                          ("laws-small", range(0, 46, 2))):
        workdir = tmp_path / name
        workdir.mkdir()
        wl = workloads.WORKLOADS[name](3, str(workdir))
        for index in indices:
            op = wl.prepare(index)
            assert wl.check(op, wl.execute(op, engine)) is None, (name, index)


# -- tracer -------------------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores_it():
    import agree.catops
    import agree.rewrite

    original = agree.catops.pullback
    assert agree.rewrite.pullback is original
    tracer = Tracer()
    tracer.install()
    try:
        assert agree.catops.pullback is not original
        assert agree.rewrite.pullback is agree.catops.pullback
    finally:
        tracer.uninstall()
    assert agree.catops.pullback is original and agree.rewrite.pullback is original


def test_generator_spans_cover_their_iteration():
    import agree.catops

    host = parse_graph(inputs.plain_host(inputs.rng_for("gen"), 60, 180))
    pattern = parse_graph(inputs.delete_edge_rule()["L"])
    tracer = Tracer()
    tracer.install()
    try:
        found = agree.catops.enumerate_monos(pattern, host, GR)
        created = tracer.stat("catops.enumerate_monos").self_ns
        matches = list(found)
    finally:
        tracer.uninstall()
    spent = tracer.stat("catops.enumerate_monos")
    assert matches and spent.calls == 1
    # The span keeps growing while the iterator is consumed, after creation.
    assert spent.self_ns > 10 * created


def test_self_time_excludes_children():
    import agree.laws

    tracer = Tracer()
    tracer.install()
    try:
        report = agree.laws.run_law("SQPO_AGREE", seed=0, size_bound=(3, 4), count=5)
    finally:
        tracer.uninstall()
    assert report.passed
    step = tracer.stat("rewrite.agree_step")
    assert step.calls == 5
    assert 0 < step.self_ns < step.total_ns
    assert tracer.stat("laws.run_law").calls == 1


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = {"ops": 1, "plain_ms": [1000.0], "traced_s": 1.0,
              "spans": {"spans": {}, "edges": [], "counters": {}, "gc": {"ms": 0, "count": 0}}}
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(traced))
    measured = {"latencies_ms": [float(i + 1) for i in range(100)], "refs_ms": [1.0] * 101,
                "failed": 0, "peak_rss_mb": 1.0}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(measured, [1.0]))
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    reported = {**run.per_layer(traced), **run.end_to_end(measured, [1.0])}
    assert all(units[name] == m["unit"] for name, m in reported.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- reference units ----------------------------------------------------------------


def test_relative_divides_by_the_nearby_reference_blocks():
    # The host slows to half speed from operation 3 on: the reference doubles
    # and so does each operation's wall time, so its relative time does not move.
    refs = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    latencies = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    rel = calib.relative(latencies, refs)
    assert rel[:3] == [5.0] * 3 and rel[-3:] == [5.0] * 3
    with pytest.raises(ValueError):
        calib.relative(latencies, refs[:-1])


def test_reference_is_fixed_work():
    assert calib.reference() == calib.reference()
    assert calib.block_s() > 0
