"""One benchmark process: set up the engine, run one workload, print a result.

Started by ``run.py`` with ``PYTHONHASHSEED`` and ``PYTHONPATH`` already
set.  The engine is imported here, inside the timed set-up, so ``setup_s``
is what a fresh process pays before its first result: the import plus one
warm-up operation.  Input generation is never timed.

Modes:
  ``setup``   set up and stop; print the set-up time.
  ``measure`` set up, run operations untraced for ``--seconds`` and print
              latencies and checks.
  ``trace``   set up, then run every operation twice, untraced and traced,
              alternating which goes first, and print per-layer figures.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import calib
import golden
import workloads
from tracer import Tracer

class Engine:
    """The engine entry points an operation calls.

    Calls go through the module attributes, so the tracer's wrappers see
    them while they are installed."""

    def __init__(self):
        import agree.cli
        import agree.laws

        self._cli = agree.cli
        self._laws = agree.laws

    def cli_main(self, argv):
        return self._cli.main(argv)

    def run_law(self, *args, **kwargs):
        return self._laws.run_law(*args, **kwargs)

    def default_instance(self, category):
        return self._laws.default_instance(category)


def _timed(workload, op, engine):
    """Run one operation; returns ``(seconds, result, error)``."""
    t0 = time.perf_counter()
    try:
        result = workload.execute(op, engine)
    except Exception:  # an engine exception fails the operation, not the run
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, result, None


def _verdict(workload, op, result, error):
    if error is not None:
        return "exception: " + error.strip().splitlines()[-1]
    try:
        return workload.check(op, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"output check raised {exc!r}"


def _record_failure(failed, op, reason):
    """Add a failed operation; the first few are described on stderr."""
    if len(failed) < 5 and op.index not in failed:
        print(f"op {op.index} ({op.kind}) failed: {reason}", file=sys.stderr)
    failed.add(op.index)


def set_up(workload):
    """Import the engine and run one warm-up operation; the input is made
    before the clock starts.  Returns the set-up's wall time and the same
    time in ``ref`` units, against reference calls just before and after."""
    op = workload.prepare(0, tag="warmup")
    refs = [calib.reference_s() for _ in range(calib.SETUP_CALLS)]
    t0 = time.perf_counter()
    engine = Engine()
    _, result, error = _timed(workload, op, engine)
    setup_s = time.perf_counter() - t0
    refs += [calib.reference_s() for _ in range(calib.SETUP_CALLS)]
    return engine, setup_s, setup_s / statistics.median(refs), _verdict(workload, op, result, error)


def measure(workload, engine, seconds):
    """Run operations for ``seconds``, with a reference block before the
    first and after each one (``calib``)."""
    latencies_ms = []
    refs_ms = [calib.block_s() * 1e3]
    failed = set()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        op = workload.prepare(index)
        dt, result, error = _timed(workload, op, engine)
        latencies_ms.append(dt * 1e3)
        refs_ms.append(calib.block_s() * 1e3)
        reason = _verdict(workload, op, result, error)
        if reason is not None:
            _record_failure(failed, op, reason)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i in range(index):
        reason = workload.crosscheck(i)
        if reason is not None:
            failed.add(i)
            print(f"op {i} failed the cross-check: {reason}", file=sys.stderr)
    return {"latencies_ms": latencies_ms, "refs_ms": refs_ms, "failed": len(failed),
            "peak_rss_mb": peak_rss_mb}


def trace(workload, engine, seconds):
    tracer = Tracer()
    plain_ms = []
    traced_s = 0.0
    failed = set()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        op = workload.prepare(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    dt, result, error = _timed(workload, op, engine)
                finally:
                    tracer.uninstall()
                traced_s += dt
            else:
                dt, result, error = _timed(workload, op, engine)
                plain_ms.append(dt * 1e3)
            reason = _verdict(workload, op, result, error)
            if reason is not None:
                _record_failure(failed, op, reason)
        index += 1
    return {"ops": index, "failed": len(failed), "plain_ms": plain_ms, "traced_s": traced_s,
            "spans": tracer.dump()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        parser.error("run without -O: the engine's invariant checks are part of what is measured")

    os.makedirs(args.workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="op-", dir=args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        engine, setup_s, setup_ref, warmup_failure = set_up(workload)
        out = {"setup_s": setup_s, "setup_ref": setup_ref, "warmup_failure": warmup_failure}
        if args.mode != "setup":
            out["golden_mismatches"] = golden.check(engine.cli_main, scratch)
            if args.mode == "measure":
                out.update(measure(workload, engine, args.seconds))
            else:
                out.update(trace(workload, engine, args.seconds))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
