"""Repeat runs give the same bytes and the same reports.

Facts kept on values and instances must not make a later call answer
differently from a first one.  Every fixture command runs twice in this
process and once in a fresh interpreter with another hash seed; the law
suite's small (law, setting) pairs run first in a fresh interpreter and
again here after all the others.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

from agree import default_instance, run_law
from agree.cli import main
from agree.laws import LAWS

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
OUTPUTS = ["--out", "h.json", "--trace", "trace.json", "--dot", "trace.dot"]

# The laws-small pairs: every law but FPBC_FINAL in each setting it runs in.
LAW_PAIRS = [(law, kind) for kind in ("gr", "typed", "pol") for law, (_, _, settings) in LAWS.items()
             if law != "FPBC_FINAL" and default_instance(kind).kind in settings]


# (rule, graph, match) of each shipped scenario.
SCENARIOS = [
    ("clone_node_rule", "chain_graph", "match_v"),
    ("clone_outgoing_rule", "chain_graph", "match_v"),
    ("delete_node_rule", "chain_graph", "match_v"),
    ("web_copy_rule", "web_graph", "web_match"),
    ("anonymize_rule", "network_graph", "network_match"),
    ("nonlocal_keep_one_rule", "three_elements_graph", "element_match"),
]


# The sha256 of the DOT text `agree apply --match … --dot` writes for each
# scenario.
DOT_DIGESTS = {
    "clone_node_rule": "1b048e56b352a75e066de8555faf2947fbebb490af33d965da593637e254e7c5",
    "clone_outgoing_rule": "1d9731f5fb83b3c8a71e695193c0a688aa99a6786857ea1df27b1345b088d6d0",
    "delete_node_rule": "720bc85032e7c328a5d2c69d164b2c800b5171461d37348f939ff45874009740",
    "web_copy_rule": "b2166fa8ed379f277724e4a9df76da67af8dacea1b3f1c9a2c4a6db96487799c",
    "anonymize_rule": "ecdf8c7a730811374dc27549ee9375afc965aa7b38a2574f7dc4d40fcdcc46e8",
    "nonlocal_keep_one_rule": "73697e3bf8a76500a58c5101484e363e5c5bf12dc2de3fe38ac4c27958838736",
}


def fixture_commands(typegraphs):
    """The commands, with each rule's type graph written under ``typegraphs``
    for the ``classifier`` runs on typed hosts."""
    def path(name):
        return str(FIXTURES / f"{name}.json")

    out = []
    for rule, graph, match in SCENARIOS:
        given = ["--rule", path(rule), "--graph", path(graph)]
        out.append(["check-rule", "--rule", path(rule)])
        out.append(["matches"] + given)
        out.append(["apply"] + given + ["--match", path(match)] + OUTPUTS)
        for index in ("0", "1", "99"):
            out.append(["apply"] + given + ["--match-index", index] + OUTPUTS)
        typegraph = json.loads(pathlib.Path(path(rule)).read_text(encoding="utf-8")).get("typegraph")
        if typegraph is None:
            out.append(["classifier", "--graph", path(graph)])
        else:
            tg = pathlib.Path(typegraphs) / f"{rule}.json"
            tg.write_text(json.dumps(typegraph), encoding="utf-8")
            out.append(["classifier", "--graph", path(graph), "--typegraph", str(tg)])
    out.append(["complement", "--m", path("complement_arrow")])
    out.append(["fpbc", "--l", path("clone_l"), "--m", path("complement_arrow"), "--verify"])
    # An input error: a typed rule against a plain graph.
    out.append(["apply", "--rule", path("web_copy_rule"), "--graph", path("chain_graph")] + OUTPUTS)
    return out


def run_commands(commands, workdir):
    """Run each command in its own empty directory under ``workdir``:
    ``[exit code, stdout, stderr, {file: text}]`` per command."""
    results = []
    home = os.getcwd()
    for i, argv in enumerate(commands):
        here = os.path.join(workdir, str(i))
        os.makedirs(here)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(here)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(home)
        files = {}
        for name in sorted(os.listdir(here)):
            with open(os.path.join(here, name), "rb") as fh:
                files[name] = fh.read().decode("utf-8")
        results.append([code, out.getvalue(), err.getvalue(), files])
    return results


def law_report(law, kind):
    report = run_law(law, seed=11, size_bound=(4, 5), instance=default_instance(kind), count=10)
    return json.loads(json.dumps({name: getattr(report, name) for name in report._fields}))


def _fresh_python(code, *args):
    env = dict(os.environ, PYTHONHASHSEED="123",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_fixture_commands_are_repeatable(tmp_path):
    commands = fixture_commands(tmp_path)
    first = run_commands(commands, tmp_path / "first")
    second = run_commands(commands, tmp_path / "second")
    fresh = _fresh_python(
        "import json, sys, test_determinism as t; "
        "print(json.dumps(t.run_commands(json.loads(sys.argv[1]), sys.argv[2])))",
        json.dumps(commands), str(tmp_path / "fresh"))
    assert {code for code, *_ in first} == {0, 1, 3}
    for argv, a, b, c in zip(commands, first, second, fresh):
        assert a == b == c, argv


def test_dot_outputs_are_pinned(tmp_path, capsys):
    for rule, graph, match in SCENARIOS:
        dot = tmp_path / f"{rule}.dot"
        assert main(["apply", "--rule", str(FIXTURES / f"{rule}.json"), "--graph", str(FIXTURES / f"{graph}.json"),
                     "--match", str(FIXTURES / f"{match}.json"), "--dot", str(dot)]) == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == DOT_DIGESTS[rule], rule
    capsys.readouterr()


def test_law_reports_do_not_depend_on_what_ran_before():
    # Each pair as the first thing a fresh interpreter runs ...
    first = [_fresh_python(
        "import json, sys, test_determinism as t; print(json.dumps(t.law_report(*sys.argv[1:])))",
        law, kind) for law, kind in LAW_PAIRS]
    # ... and here, after every pair has run once.
    for law, kind in LAW_PAIRS:
        law_report(law, kind)
    after = [law_report(law, kind) for law, kind in LAW_PAIRS]
    assert len(LAW_PAIRS) == 23
    for pair, a, b in zip(LAW_PAIRS, first, after):
        assert a == b, pair
        assert a["passed"], pair
