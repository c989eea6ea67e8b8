"""A fixed reference computation that measures the speed of the machine.

On a shared host the same Python code runs up to a third faster or slower
from one minute to the next, because other tenants load the cores and
caches this process runs on.  The benchmark therefore runs ``reference``
next to every operation and reports operation times in units of it
(``ref``): what the host's speed does to both cancels in the ratio, what a
change to the engine does to the operation does not.

The reference does what the engine's hot paths do, in pure Python and
without the engine: it sorts and formats string ids, builds and probes
dicts and sets of them, and compares frozensets.  It allocates almost no
objects the cyclic garbage collector tracks, so it does not trigger
collections over the engine's heap.  It never changes: a new reference
would make every earlier figure incomparable.
"""

from __future__ import annotations

import statistics
import time

_IDS = [f"n{(i * 7919) % 6000:04d}" for i in range(6000)]


def reference() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    order = sorted(_IDS)
    index = {}
    for i, x in enumerate(order):
        index[x] = i
    pairs = {}
    for x in order[:1500]:
        for y in order[:10]:
            if index[x] % 10 == index[y] % 10:
                pairs[f"{x},{y}"] = len(x) + len(y)
    seen = set()
    total = 0
    for key in sorted(pairs):
        a, _, b = key.partition(",")
        if a not in seen:
            seen.add(a)
        total += pairs[key] + index[a] - index[b]
    left = frozenset(order[::2])
    right = frozenset(x for i, x in enumerate(order) if i % 2 == 0)
    return total + len(seen) + (left == right)


# Calls of ``reference`` in one block, the sample taken between operations.
BLOCK = 2
# Calls of ``reference`` just before and just after a timed set-up.
SETUP_CALLS = 3
# Seconds one ``reference`` call takes on an idle core of the machine the
# benchmark was defined on (a 2-vCPU Intel Xeon virtual machine, Python
# 3.11.7).  ``setup_s`` is reported as set-up time in ``ref`` units times
# this constant: seconds at that fixed speed.  Like ``reference`` it must
# never change.
NOMINAL_REF_S = 0.0044


def reference_s() -> float:
    """Seconds one call of ``reference`` takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def block_s() -> float:
    """Mean seconds per ``reference`` call over one block."""
    return sum(reference_s() for _ in range(BLOCK)) / BLOCK


def relative(latencies: list, refs: list) -> list:
    """Each latency in units of the reference time measured around it.

    ``refs[i]`` is the block taken just before operation ``i`` and
    ``refs[i + 1]`` the one just after it.  Operation ``i`` is divided by
    the median of the four blocks nearest to it, ``refs[i - 1:i + 3]``, so
    one block slowed by a preemption does not skew it.
    """
    if len(refs) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} latencies need {len(latencies) + 1} reference blocks, got {len(refs)}")
    return [t / statistics.median(refs[max(0, i - 1):i + 3]) for i, t in enumerate(latencies)]
