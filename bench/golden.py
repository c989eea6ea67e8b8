"""SHA-256 digests of canonical engine output, recorded from a reference commit.

The engine's output is canonical JSON, so an optimisation that keeps its
observable behaviour leaves every byte alone.  ``_cases`` lists fixed CLI
calls: the shipped scenarios (the chain graph with the three
cloning and deletion rules, the web graph with the page-copy rule) and one
smaller seeded instance of every benchmark operation.  For each call the
digest of every file it writes (result graph ``H``, step ``trace``,
``matches`` list) is stored in ``golden.json``; ``check`` re-runs the calls
and names every digest that changed.

Record again only when output is meant to change:

    python3 bench/golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import inputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(HERE, ".work")
SEEDED_APPLY_N = 200
SEEDED_MATCH_N = {"edge": 40, "path": 16, "typed_edge": 40}


def _cases():
    """``(name, rule doc, graph doc, match doc or None, match index or None)``.

    The match list is recorded where it is small: for the scenarios and the
    match workload's patterns, not for the discrete 8-node rule, whose
    match count grows with the eighth power of the host size."""
    chain_match = {"nodes": {"x": "v"}, "edges": {}}
    out = [
        ("chain/clone_node", inputs.clone_node_rule(), inputs.chain_graph(), chain_match, None),
        ("chain/clone_outgoing", inputs.clone_outgoing_rule(), inputs.chain_graph(), chain_match, None),
        ("chain/delete_node", inputs.delete_node_rule(), inputs.chain_graph(), chain_match, None),
        ("web/web_copy", inputs.web_copy_rule(), inputs.web_graph(), {"nodes": {"p": "v"}, "edges": {}}, None),
    ]
    for kind, rule, matched, typed in workloads.APPLY_RULES:
        rng = inputs.rng_for("golden", kind)
        n = SEEDED_APPLY_N
        host = (inputs.typed_host(rng, n, 3 * n, inputs.WEB_TYPEGRAPH) if typed
                else inputs.plain_host(rng, n, 3 * n))
        picked = rng.sample([x["id"] for x in host["nodes"]], matched)
        lhs = sorted(x["id"] for x in rule["L"]["nodes"])
        out.append((f"apply-large/{kind}", rule, host,
                    {"nodes": dict(zip(lhs, picked)), "edges": {}}, None))
    for pattern, rule, _, typegraph in workloads.MATCH_PATTERNS:
        rng = inputs.rng_for("golden", pattern)
        n = SEEDED_MATCH_N[pattern]
        host = (inputs.typed_host(rng, n, 3 * n, typegraph) if typegraph
                else inputs.plain_host(rng, n, 3 * n))
        out.append((f"match-medium/{pattern}", rule, host, None, n // 2))
    return out


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(cli_main, workdir) -> dict:
    """Run every case and return ``{case: {output: sha256}}``."""
    out = {}
    for name, rule, graph, match, index in _cases():
        files = {k: os.path.join(workdir, f"golden-{k}.json") for k in ("rule", "graph", "match")}
        for key, doc in (("rule", rule), ("graph", graph), ("match", match)):
            if doc is not None:
                with open(files[key], "w", encoding="utf-8") as fh:
                    fh.write(inputs.dump(doc))
        h = os.path.join(workdir, "golden-H.json")
        trace = os.path.join(workdir, "golden-trace.json")
        matches = os.path.join(workdir, "golden-matches.json")
        argv = ["apply", "--rule", files["rule"], "--graph", files["graph"], "--out", h, "--trace", trace]
        argv += ["--match", files["match"]] if match is not None else ["--match-index", str(index)]
        if cli_main(argv) != 0:
            raise RuntimeError(f"golden case {name}: apply failed")
        out[name] = {"H": _sha(h), "trace": _sha(trace)}
        if not name.startswith("apply-large/"):
            with open(matches, "w", encoding="utf-8", newline="\n") as fh, contextlib.redirect_stdout(fh):
                if cli_main(["matches", "--rule", files["rule"], "--graph", files["graph"]]) != 0:
                    raise RuntimeError(f"golden case {name}: matches failed")
            out[name]["matches"] = _sha(matches)
    return out


def check(cli_main, workdir) -> list:
    """Names of the outputs whose digest differs from the recorded one."""
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    try:
        now = digests(cli_main, workdir)
    except Exception as exc:  # a crash in any case fails the whole comparison
        return [f"golden run failed: {exc!r}"]
    names = sorted(set(recorded) | set(now))
    return [f"{case}/{key}" for case in names
            for key in sorted(set(recorded.get(case, {})) | set(now.get(case, {})))
            if recorded.get(case, {}).get(key) != now.get(case, {}).get(key)]


def main(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from agree.cli import main as cli_main

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if argv == ["--record"]:
            with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(digests(cli_main, workdir), fh, indent=2, sort_keys=True)
                fh.write("\n")
            return 0
        if argv in ([], ["--check"]):
            bad = check(cli_main, workdir)
            for name in bad:
                print(f"changed: {name}")
            print("golden digests: " + ("all match" if not bad else f"{len(bad)} changed"))
            return 1 if bad else 0
    print("usage: golden.py [--check | --record]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
