"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload apply-large --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  The engine is imported from ``src/`` of
that checkout, never from an installed copy.  The measured work runs in a
child process (``worker.py``) whose ``PYTHONHASHSEED`` follows from
``--seed``, so two runs with the same seed see the same set orders.

``--trace 0`` prints the end-to-end metrics, with operation times in
``ref`` units of ``calib.reference``; the set-up time is the median over the
measuring process and ``SETUP_PROBES`` further fresh processes.  Wall-clock
figures follow, marked as not gated.
``--trace 1`` prints the per-layer metrics from a separate traced run and
writes its aggregated spans to ``bench/out/``.  Before the result, one
human-readable line per metric is printed; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_PROBES = 4
DEADLINE_S = 170


def hash_seed(seed: int) -> int:
    """The child's ``PYTHONHASHSEED``: a fixed function of the workload seed,
    never 0 (which would switch hash randomisation off)."""
    return 1 + seed % (2 ** 32 - 1)


def _child(args, mode, deadline):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(args.seed))
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", WORK]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    """The q-th percentile (0 < q < 100) by the exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(main, setup_refs) -> dict:
    """The gated metrics.  Operation times are in ``ref`` units: each
    operation's wall time over the reference time measured around it
    (``calib``), which cancels the shared host's speed drift.  ``setup_s``
    is the median set-up time in ``ref`` units, as seconds at the fixed
    speed ``calib.NOMINAL_REF_S``."""
    lat = main["latencies_ms"]
    attempted = len(lat)
    rel = calib.relative(lat, main["refs_ms"])
    return {
        "op_mean_ref": _metric(statistics.fmean(rel), "ref"),
        "op_p50_ref": _metric(statistics.median(rel), "ref"),
        "op_p90_ref": _metric(_percentile(rel, 90), "ref"),
        "ok_ratio": _metric(1.0 - main["failed"] / attempted, "ratio"),
        "setup_s": _metric(statistics.median(setup_refs) * calib.NOMINAL_REF_S, "s"),
        "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
    }


def wall_clock(latencies_ms) -> dict:
    """Wall-clock figures of the same operations, as a user's clock reads
    them; they follow the host's speed, so they are reported, not gated."""
    return {
        "wall.ops_per_s": _metric(len(latencies_ms) / (sum(latencies_ms) / 1e3), "1/s"),
        "wall.op_p50_ms": _metric(statistics.median(latencies_ms), "ms"),
        "wall.op_p90_ms": _metric(_percentile(latencies_ms, 90), "ms"),
    }


# Per-layer metrics read off the aggregated spans: (metric, span, field, unit).
SPAN_METRICS = (
    [("cli.main.self_ms", "cli.main", "self_ms", "ms/op")]
    + [(f"io.{f}.self_ms", f"io.{f}", "self_ms", "ms/op")
       for f in ("parse_graph", "parse_rule", "parse_morphism", "graph_doc", "morphism_doc", "dumps")]
    + [(f"core.{f}.{field}", f"core.{f}", field, unit)
       for f in ("validate_morphism", "compose")
       for field, unit in (("calls", "calls/op"), ("self_ms", "ms/op"))]
    + [(f"classifier.{f}.self_ms", f"classifier.{f}", "self_ms", "ms/op") for f in ("t_object", "phi", "t_morphism")]
    + [("classifier.t_object.calls", "classifier.t_object", "calls", "calls/op")]
    + [(f"catops.{f}.self_ms", f"catops.{f}", "self_ms", "ms/op")
       for f in ("pullback", "pullback_mediator", "pushout_along_mono", "is_pullback_square",
                 "enumerate_monos", "enumerate_morphisms")]
    + [("rewrite.enumerate_matches.self_ms", "rewrite.enumerate_matches", "self_ms", "ms/op"),
       ("catops.iso_search.calls", "catops.iso_search", "calls", "calls/op"),
       ("catops.iso_search.self_ms", "catops.iso_search", "self_ms", "ms/op")]
    + [(f"rewrite.{f}.self_ms", f"rewrite.{f}", "self_ms", "ms/op")
       for f in ("fpbc", "is_local_step", "strict_complement", "complement_of_square",
                 "agree_step", "psqpo_step")]
    + [("laws.run_law.self_ms", "laws.run_law", "self_ms", "ms/op")]
)


def per_layer(traced) -> dict:
    ops = traced["ops"]
    dump = traced["spans"]
    spans = dump["spans"]
    metrics = {}
    for name, span, field, unit in SPAN_METRICS:
        metrics[name] = _metric(spans.get(span, {}).get(field, 0) / ops, unit)
    counters = dump["counters"]
    metrics["rewrite.enumerate_matches.matches"] = _metric(
        counters.get("rewrite.enumerate_matches.matches", 0) / ops, "matches/op")
    iso_calls = spans.get("catops.iso_search", {}).get("calls", 0)
    candidates = sum(e["calls"] for e in dump["edges"]
                     if e["parent"] == "catops.iso_search" and e["child"] == "core.validate_morphism")
    metrics["catops.iso_search.candidates_per_call"] = _metric(
        candidates / iso_calls if iso_calls else 0, "candidates/call")
    metrics["runtime.gc_ms"] = _metric(dump["gc"]["ms"] / ops, "ms/op")
    metrics["runtime.gc_count"] = _metric(dump["gc"]["count"] / ops, "collections/op")
    metrics["trace.overhead_ratio"] = _metric(traced["traced_s"] / (sum(traced["plain_ms"]) / 1e3), "ratio")
    # A traced run has too few operations for ten samples beyond p90.
    wall = wall_clock(traced["plain_ms"])
    metrics["wall.ops_per_s"] = wall["wall.ops_per_s"]
    metrics["wall.op_p50_ms"] = wall["wall.op_p50_ms"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "agree", "__init__.py")):
        print(f"error: no engine source at {os.path.relpath(SRC)}/agree; run from a checkout", file=sys.stderr)
        return 2
    # Compile ahead so that no process's set-up time includes writing bytecode.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(WORK, exist_ok=True)

    extra = {}
    try:
        if args.trace:
            result = _child(args, "trace", deadline)
            attempted = result["ops"]
            metrics = per_layer(result)
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(result["spans"], fh, indent=1, sort_keys=True)
        else:
            result = _child(args, "measure", deadline)
            attempted = len(result["latencies_ms"])
            setups = [result]
            for _ in range(SETUP_PROBES):
                setups.append(_child(args, "setup", deadline))
            metrics = end_to_end(result, [x["setup_ref"] for x in setups])
            extra = wall_clock(result["latencies_ms"])
            extra["wall.setup_s"] = _metric(statistics.median(x["setup_s"] for x in setups), "s")
            extra["wall.ref_ms"] = _metric(statistics.median(result["refs_ms"]), "ms")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    problems = []
    if result["warmup_failure"]:
        problems.append(f"warm-up operation failed: {result['warmup_failure']}")
    if result["golden_mismatches"]:
        problems.append("output differs from the recorded digests: " + ", ".join(result["golden_mismatches"]))
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:42s} {m['value']:14.4f} {m['unit']}")
    for name, m in extra.items():
        print(f"{args.workload:13s} {name:42s} {m['value']:14.4f} {m['unit']}  (not gated)")
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
