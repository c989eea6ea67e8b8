"""The three benchmark workloads: how each operation is built, run and checked.

A workload turns an operation index into input files (untimed), runs the
operation against the engine (timed), and checks its output with
``checks`` (untimed).  Every operation draws its inputs from its own
generator, seeded by the workload name, the workload seed and the index,
so no two operations in a run share a host.  Nothing here imports the
engine; ``execute`` receives it as an argument.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
from dataclasses import dataclass, field

import checks
import inputs

# (fixed rule kind, rule document, number of matched host nodes, typed host)
APPLY_RULES = (
    ("clone", inputs.clone_node_rule(), 1, False),
    ("clone_out", inputs.clone_outgoing_rule(), 1, False),
    ("delete", inputs.delete_node_rule(), 1, False),
    ("identity", inputs.identity_rule(8), 8, False),
    ("web_copy", inputs.web_copy_rule(), 1, True),
)
APPLY_N = 2000

# (pattern, rule document, host nodes, type graph or None); each host has 3n edges.
MATCH_PATTERNS = (
    ("edge", inputs.delete_edge_rule(), 100, None),
    ("path", inputs.delete_middle_rule(), 32, None),
    ("typed_edge", inputs.delete_edge_rule(typed=True), 100, inputs.TWO_TYPE_TYPEGRAPH),
)

# The (law, category) pairs the CLI's law command runs, in its order, less
# FPBC_FINAL: its bounded finality oracle enumerates competitor cones
# exhaustively, and one run_law call of it takes from 0.03 s to over 40 s
# depending on the drawn instance, so a closed loop that includes it can
# neither keep its time limit nor report a steady throughput.
_LAWS = ("ETA_CARTESIAN", "PHI_UNIQUE", "PHI_DECOMP", "COMPLEMENT_T0", "COMPLEMENT_TL_ISO",
         "LOCALITY", "SQPO_AGREE", "PSQPO_AGREE", "COUNIT_ISO")
LAW_PAIRS = (
    [(law, "gr") for law in _LAWS]
    + [(law, "typed") for law in _LAWS if law != "PSQPO_AGREE"]
    + [(law, "pol") for law in _LAWS
       if law not in ("LOCALITY", "SQPO_AGREE", "PSQPO_AGREE")]
)
LAW_BOUND = (4, 5)
LAW_COUNT = 10


@dataclass
class Op:
    index: object
    kind: str                      # "apply", "matches" or "law"
    argv: list = field(default_factory=list)
    out: str = ""                  # file the CLI writes its result to
    expect: object = None          # what the independent check compares against
    law: tuple = ()                # (law id, category, law seed) for law operations


def _write(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(inputs.dump(doc))
    return path


def _fresh(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    return path


class CliWorkload:
    """Operations that are one ``agree.cli.main(argv)`` call each."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def execute(self, op: Op, engine):
        if op.kind == "matches":
            with open(op.out, "w", encoding="utf-8", newline="\n") as fh, contextlib.redirect_stdout(fh):
                return engine.cli_main(op.argv)
        return engine.cli_main(op.argv)

    def check(self, op: Op, result):
        """``None`` if the operation succeeded and its output is right,
        else the reason it failed."""
        if result != 0:
            return f"exit code {result}"
        with open(op.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if op.kind == "matches":
            if doc != op.expect:
                return f"match list differs ({len(doc)} matches, expected {len(op.expect)})"
            return None
        try:
            got = checks.graph_counts(doc)
        except ValueError as exc:
            return str(exc)
        if got != op.expect:
            return f"result graph has (nodes, edges) = {got}, expected {op.expect}"
        return None

    def crosscheck(self, index):
        return None


class ApplyLarge(CliWorkload):
    name = "apply-large"
    cycle = len(APPLY_RULES)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rule_paths = [_write(self.path(f"rule-{kind}.json"), doc)
                           for kind, doc, _, _ in APPLY_RULES]

    def host(self, rng, typed):
        if typed:
            return inputs.typed_host(rng, APPLY_N, 3 * APPLY_N, inputs.WEB_TYPEGRAPH)
        return inputs.plain_host(rng, APPLY_N, 3 * APPLY_N)

    def prepare(self, index, tag=None) -> Op:
        slot = 0 if tag else index % self.cycle
        kind, rule, matched, typed = APPLY_RULES[slot]
        rng = inputs.rng_for(self.name, self.seed, tag or index)
        host = self.host(rng, typed)
        picked = rng.sample([x["id"] for x in host["nodes"]], matched)
        lhs = sorted(x["id"] for x in rule["L"]["nodes"])
        match = {"nodes": dict(zip(lhs, picked)), "edges": {}}
        graph = _write(self.path("G.json"), host)
        match_path = _write(self.path("M.json"), match)
        out = _fresh(self.path("H.json"))
        argv = ["apply", "--rule", self.rule_paths[slot], "--graph", graph,
                "--match", match_path, "--out", out]
        return Op(index, "apply", argv, out, checks.expected_h_counts(kind, host, picked[0]))


class MatchMedium(CliWorkload):
    name = "match-medium"
    cycle = 2 * len(MATCH_PATTERNS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rule_paths = [_write(self.path(f"rule-{pattern}.json"), doc)
                           for pattern, doc, _, _ in MATCH_PATTERNS]

    def _draw(self, index, tag=None):
        slot = 0 if tag else index % self.cycle
        pattern, _, n, typegraph = MATCH_PATTERNS[slot // 2]
        rng = inputs.rng_for(self.name, self.seed, tag or index)
        if typegraph is None:
            host = inputs.plain_host(rng, n, 3 * n)
        else:
            host = inputs.typed_host(rng, n, 3 * n, typegraph)
        return slot, pattern, rng, host

    def prepare(self, index, tag=None) -> Op:
        slot, pattern, rng, host = self._draw(index, tag)
        expected = checks.expected_matches(pattern, host)
        graph = _write(self.path("G.json"), host)
        rule = self.rule_paths[slot // 2]
        if slot % 2 == 0:
            out = _fresh(self.path("matches.json"))
            return Op(index, "matches", ["matches", "--rule", rule, "--graph", graph], out, expected)
        k = rng.randrange(len(expected))
        out = _fresh(self.path("H.json"))
        argv = ["apply", "--rule", rule, "--graph", graph, "--match-index", str(k), "--out", out]
        if pattern == "path":
            counts = checks.expected_h_counts("delete", host, expected[k]["nodes"]["b"])
        else:
            counts = checks.expected_h_counts("delete_edge", host)
        return Op(index, "apply", argv, out, counts)

    def crosscheck(self, index):
        """Compare the direct match count of an operation's host with
        networkx's count; skipped where networkx is not installed."""
        if importlib.util.find_spec("networkx") is None:
            return None
        _, pattern, _, host = self._draw(index)
        direct = len(checks.expected_matches(pattern, host))
        counted = checks.nx_match_count(pattern, host)
        if direct != counted:
            return f"direct count {direct} differs from networkx count {counted}"
        return None


class LawsSmall:
    """Operations that are one ``run_law`` call each, cycling through the
    (law, category) pairs; every cycle draws a fresh law seed."""

    name = "laws-small"
    cycle = len(LAW_PAIRS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, index, tag=None) -> Op:
        slot = 0 if tag else index % self.cycle
        law, category = LAW_PAIRS[slot]
        rounds = tag or index // self.cycle
        law_seed = inputs.rng_for(self.name, self.seed, rounds).randrange(2 ** 31)
        return Op(index, "law", law=(law, category, law_seed))

    def execute(self, op: Op, engine):
        law, category, law_seed = op.law
        return engine.run_law(law, seed=law_seed, size_bound=LAW_BOUND,
                              instance=engine.default_instance(category), count=LAW_COUNT)

    def check(self, op: Op, report):
        if report.count != LAW_COUNT:
            return f"law ran {report.count} instances, expected {LAW_COUNT}"
        if not report.passed:
            return f"law failed on {report.failures} of {report.count} instances"
        return None

    def crosscheck(self, index):
        return None


WORKLOADS = {w.name: w for w in (ApplyLarge, MatchMedium, LawsSmall)}
