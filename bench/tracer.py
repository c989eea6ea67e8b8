"""Span tracing installed from outside the engine.

``Tracer.install`` replaces every binding of the traced ``agree`` functions
with a timing wrapper.  ``from .catops import pullback`` copies the binding
into the importing module, so each module attribute that holds the original
function object is patched, not only the defining one.  ``uninstall`` puts
the originals back, so untraced operations run the engine unchanged.

A span's self time is its duration minus the time covered by its child
spans.  Generator functions are timed over their iteration: the span is
re-entered on every resume of the returned iterator, so the work lands on
the generator and not on whoever consumes it.  Spans are aggregated in
memory by name and by ``(parent, child)`` pair.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import types

# Function names traced per engine module.  A function is traced under
# "<module>.<name>", whatever module it is called through.
TRACED = {
    "core": ("validate_morphism", "compose"),
    "catops": ("pullback", "pullback_mediator", "pushout_along_mono", "is_pullback_square",
               "iso_search", "enumerate_monos", "enumerate_morphisms"),
    "classifier": ("t_object", "phi", "t_morphism"),
    "rewrite": ("enumerate_matches", "agree_step", "psqpo_step", "fpbc", "is_local_step",
                "strict_complement", "complement_of_square"),
    "laws": ("run_law",),
    "io": ("parse_graph", "parse_rule", "parse_morphism", "graph_doc", "morphism_doc", "dumps"),
    "cli": ("main",),
}

PACKAGE = "agree"
_now = time.perf_counter_ns


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Aggregated spans plus counters read off traced return values."""

    def __init__(self):
        self.stats = {}          # span name -> Stat
        self.edges = {}          # (parent, child) -> calls
        self.counters = {}       # counter name -> sum
        self.gc_ns = 0
        self.gc_count = 0
        self._stack = [["<op>", 0]]   # [name, child time] per open span
        self._patches = []
        self._gc_start = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0]
        key = (parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        frame = [name, 0]
        self._stack.append(frame)
        return frame

    def _resume(self, name):
        frame = [name, 0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name, t0, count_call):
        dur = _now() - t0
        self._stack.pop()
        self._stack[-1][1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        if count_call:
            st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - frame[1]

    def _count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _iterate(self, name, gen):
        try:
            while True:
                frame = self._resume(name)
                t0 = _now()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(frame, name, t0, False)
                yield item
        finally:
            gen.close()

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(frame, name, t0, True)
            if counter is not None:
                self._count(counter[0], counter[1](out))
            if isinstance(out, types.GeneratorType):
                return self._iterate(name, out)
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        """Patch every binding of every traced function and start counting
        garbage collections, until ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for short, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{short}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._gc_start = None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _now()
        elif self._gc_start is not None:
            self.gc_ns += _now() - self._gc_start
            self.gc_count += 1
            self._gc_start = None

    # -- results ------------------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name) or Stat()

    def dump(self) -> dict:
        """Every aggregated span and call edge, as plain JSON data."""
        return {
            "spans": {name: {"calls": s.calls, "total_ms": s.total_ns / 1e6, "self_ms": s.self_ns / 1e6}
                      for name, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n} for (p, c), n in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
            "gc": {"ms": self.gc_ns / 1e6, "count": self.gc_count},
        }


# Counters read off return values: span name -> (counter name, extractor).
_COUNTERS = {
    "rewrite.enumerate_matches": ("rewrite.enumerate_matches.matches", len),
}
