"""How step and match cost grow with host size; run by hand, never gated.

    python3 bench/scaling.py

Times ``agree_step`` (the SQPO clone rule) on random hosts with n nodes
and 3n edges for n = 250 ... 4000, and ``enumerate_matches`` of the
one-edge pattern for n = 25 ... 200, and prints the exponent of the
least-squares line through (log n, log seconds) for each.  Each point is
the median of ``REPEATS`` calls on as many seeded hosts; parsing is not
timed.

A third section records the cost distribution of one ``FPBC_FINAL``
``run_law`` call (10 instances, the default bound), which the
``laws-small`` workload leaves out: each call is stopped at
``FPBC_CAP_S`` and counted as over the cap.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402

STEP_SIZES = (250, 500, 1000, 2000, 4000)
MATCH_SIZES = (25, 50, 100, 200)
REPEATS = 3
FPBC_SEEDS = 12
FPBC_CAP_S = 2.0


def exponent(points):
    """Slope of the least-squares line through ``(log n, log t)``."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _median_time(fn, args_list):
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def step_points():
    from agree.io import parse_graph, parse_morphism, parse_rule
    from agree.rewrite import agree_step

    rule, instance = parse_rule(inputs.clone_node_rule())
    points = []
    for n in STEP_SIZES:
        args = []
        for rep in range(REPEATS):
            rng = inputs.rng_for("scaling-step", n, rep)
            host = parse_graph(inputs.plain_host(rng, n, 3 * n))
            v = rng.choice(sorted(host.nodes))
            match = parse_morphism({"nodes": {"x": v}, "edges": {}}, source=rule.lhs, target=host)
            args.append((rule, match, instance))
        points.append((n, _median_time(agree_step, args)))
    return points


def match_points():
    from agree.io import parse_graph, parse_rule
    from agree.rewrite import enumerate_matches

    rule, instance = parse_rule(inputs.delete_edge_rule())
    points = []
    for n in MATCH_SIZES:
        args = [(rule.lhs, parse_graph(inputs.plain_host(inputs.rng_for("scaling-match", n, rep), n, 3 * n)),
                 instance) for rep in range(REPEATS)]
        points.append((n, _median_time(enumerate_matches, args)))
    return points


class _OverCap(Exception):
    pass


def _raise_over_cap(signum, frame):
    raise _OverCap()


def fpbc_distribution(category):
    from agree.laws import default_instance, run_law

    instance = default_instance(category)
    times = []
    previous = signal.signal(signal.SIGALRM, _raise_over_cap)
    try:
        for i in range(FPBC_SEEDS):
            seed = inputs.rng_for("scaling-fpbc", i).randrange(2 ** 31)
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, FPBC_CAP_S)
            try:
                run_law("FPBC_FINAL", seed=seed, size_bound=(4, 5), instance=instance, count=10)
                times.append(time.perf_counter() - t0)
            except _OverCap:
                times.append(math.inf)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times


def main():
    for title, points in (("agree_step, SQPO clone, 3n edges", step_points()),
                          ("enumerate_matches, one-edge pattern, 3n edges", match_points())):
        print(title)
        for n, t in points:
            print(f"  n={n:5d}  {t * 1e3:10.2f} ms")
        print(f"  fitted exponent: {exponent(points):.2f}")
    for category in ("gr", "typed"):
        times = sorted(fpbc_distribution(category))
        finite = [t for t in times if t != math.inf]
        over = len(times) - len(finite)
        print(f"FPBC_FINAL [{category}], {len(times)} run_law calls of 10 instances")
        print(f"  median {statistics.median(times):.3f} s, fastest {times[0]:.3f} s, "
              f"{over} over the {FPBC_CAP_S:.0f} s cap"
              + (f", slowest under it {finite[-1]:.3f} s" if finite else ""))


if __name__ == "__main__":
    main()
