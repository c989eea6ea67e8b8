"""Command-line behavior: subcommands, exit codes, canonical output."""

import json
import os
import pathlib

import pytest

import agree.cli
from agree import GR, GRPOL, Graph, Morphism, iso_search, strict_complement, t_object
from agree.cli import main
from agree.rewrite import Fpbc
from agree.io import dumps, morphism_doc, parse_graph, parse_morphism
from test_io import page_copy_rule_doc

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CLONE_FPBC = ["fpbc", "--l", str(FIXTURES / "clone_l.json"),
              "--m", str(FIXTURES / "complement_arrow.json"), "--verify"]


@pytest.fixture
def workdir(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(dumps(doc) if isinstance(doc, (dict, list)) else doc, encoding="utf-8")
        return str(path)

    return tmp_path, write


def identity_rule_doc():
    return {
        "mode": "SQPO",
        "L": {"nodes": [{"id": "x"}], "edges": []},
        "K": {"nodes": [{"id": "x"}], "edges": []},
        "R": {"nodes": [{"id": "x"}], "edges": []},
        "l": {"nodes": {"x": "x"}, "edges": {}},
        "r": {"nodes": {"x": "x"}, "edges": {}},
    }


def host_doc():
    return {
        "nodes": [{"id": "a"}, {"id": "v"}, {"id": "b"}],
        "edges": [
            {"id": "av", "src": "a", "tgt": "v"},
            {"id": "vb", "src": "v", "tgt": "b"},
        ],
    }


class TestApply:
    def test_identity_rule_keeps_host(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", host_doc())
        assert main(["apply", "--rule", rule, "--graph", graph]) == 0
        out = json.loads(capsys.readouterr().out)
        assert iso_search(parse_graph(out), parse_graph(host_doc()), GR) is not None

    def test_no_match_exit_code(self, workdir, capsys):
        tmp, write = workdir
        doc = identity_rule_doc()
        doc["L"]["nodes"].append({"id": "y"})
        doc["L"]["edges"].append({"id": "xy", "src": "x", "tgt": "y"})
        rule = write("rule.json", doc)
        graph = write("graph.json", {"nodes": [{"id": "a"}], "edges": []})
        assert main(["apply", "--rule", rule, "--graph", graph]) == 3

    def test_match_index_picks_the_listed_match(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", host_doc())
        assert main(["matches", "--rule", rule, "--graph", graph]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert len(listed) == 3
        for k, match in enumerate(listed):
            assert main(["apply", "--rule", rule, "--graph", graph, "--match-index", str(k),
                         "--trace", str(tmp / "by-index.json")]) == 0
            assert main(["apply", "--rule", rule, "--graph", graph,
                         "--match", write("match.json", match),
                         "--trace", str(tmp / "by-match.json")]) == 0
            assert (tmp / "by-index.json").read_bytes() == (tmp / "by-match.json").read_bytes()
        capsys.readouterr()
        for k in ("-1", "3", "99999999999999999999"):
            assert main(["apply", "--rule", rule, "--graph", graph, "--match-index", k]) == 3
            assert capsys.readouterr().err.strip() == "no match found"

    def test_byte_identical_reruns(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", host_doc())
        out1 = str(tmp / "h1.json")
        out2 = str(tmp / "h2.json")
        assert main(["apply", "--rule", rule, "--graph", graph, "--match-index", "1",
                     "--out", out1]) == 0
        assert main(["apply", "--rule", rule, "--graph", graph, "--match-index", "1",
                     "--out", out2]) == 0
        assert (tmp / "h1.json").read_bytes() == (tmp / "h2.json").read_bytes()

    def test_trace_and_dot_outputs(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", host_doc())
        trace = str(tmp / "trace.json")
        dot = str(tmp / "trace.dot")
        assert main(["apply", "--rule", rule, "--graph", graph,
                     "--trace", trace, "--dot", dot]) == 0
        tdoc = json.loads((tmp / "trace.json").read_text())
        assert set(tdoc["objects"]) == {"L", "K", "R", "TK", "G", "D", "H", "TL"}
        assert "cluster_TL" in (tmp / "trace.dot").read_text()

    def test_explicit_match_file(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", host_doc())
        match = write("match.json", {"nodes": {"x": "v"}, "edges": {}})
        assert main(["apply", "--rule", rule, "--graph", graph, "--match", match]) == 0

    def test_typed_page_copy_end_to_end(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", page_copy_rule_doc())
        graph = write("graph.json", {
            "nodes": [{"id": "u", "type": "page"}, {"id": "v", "type": "page"},
                      {"id": "w", "type": "page"}],
            "edges": [{"id": "uv", "src": "u", "tgt": "v", "type": "link"},
                      {"id": "vw", "src": "v", "tgt": "w", "type": "link"}],
        })
        match = write("match.json", {"nodes": {"p": "v"}, "edges": {}})
        assert main(["apply", "--rule", rule, "--graph", graph, "--match", match]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["nodes"]) == 4  # original three pages plus the copy
        assert len(out["edges"]) == 3  # uv, vw, copy->w


class TestMatches:
    def test_lists_matches_in_order(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", host_doc())
        assert main(["matches", "--rule", rule, "--graph", graph]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [m["nodes"]["x"] for m in out] == ["a", "b", "v"]

    def test_zero_matches_is_success(self, workdir, capsys):
        tmp, write = workdir
        doc = identity_rule_doc()
        doc["L"]["nodes"].append({"id": "y"})
        rule = write("rule.json", doc)
        graph = write("graph.json", {"nodes": [{"id": "a"}], "edges": []})
        assert main(["matches", "--rule", rule, "--graph", graph]) == 0
        assert json.loads(capsys.readouterr().out) == []


_POLARIZED_HOST = {
    "nodes": [{"id": "a", "polarity": ["+"]}, {"id": "v", "polarity": ["+", "-"]},
              {"id": "b", "polarity": ["-"]}],
    "edges": [{"id": "av", "src": "a", "tgt": "v"}, {"id": "vb", "src": "v", "tgt": "b"}],
}


class TestClassifier:
    def test_counts(self, workdir, capsys):
        tmp, write = workdir
        graph = write("graph.json", host_doc())
        assert main(["classifier", "--graph", graph]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["total"]["nodes"]) == 4
        assert len(out["total"]["edges"]) == 2 + 16

    def test_polarized_host(self, workdir, capsys):
        tmp, write = workdir
        graph = write("graph.json", _POLARIZED_HOST)
        assert main(["classifier", "--graph", graph]) == 0
        cls = t_object(parse_graph(_POLARIZED_HOST), GRPOL)
        assert capsys.readouterr().out == dumps({"total": cls.total, "unit": morphism_doc(cls.unit)})


class TestFpbc:
    def test_fpbc_with_verification(self, workdir, capsys):
        tmp, write = workdir
        point = {"nodes": [{"id": "x"}], "edges": []}
        two = {"nodes": [{"id": "k0"}, {"id": "k1"}], "edges": []}
        l = write("l.json", {"source": two, "target": point,
                             "nodes": {"k0": "x", "k1": "x"}, "edges": {}})
        m = write("m.json", {"target": host_doc(), "nodes": {"x": "v"}, "edges": {}})
        assert main(["fpbc", "--l", l, "--m", m, "--verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["D"]["nodes"]) == 4 and len(out["D"]["edges"]) == 4

    def test_empty_interface_into_a_polarized_lhs(self, workdir, capsys):
        """``l`` starts at an empty K with no polarity field: both its ends
        are read in the polarized setting of its target."""
        tmp, write = workdir
        point = {"nodes": [{"id": "x", "polarity": ["+", "-"]}], "edges": []}
        l = write("l.json", {"source": {"nodes": [], "edges": []}, "target": point, "nodes": {}, "edges": {}})
        m = write("m.json", {"target": _POLARIZED_HOST, "nodes": {"x": "v"}, "edges": {}})
        assert main(["fpbc", "--l", l, "--m", m]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["D"] == {"nodes": [{"id": "(a,*)", "polarity": ["+"]}, {"id": "(b,*)", "polarity": ["-"]}],
                            "edges": []}

    def test_shipped_clone_complement_is_final(self, capsys):
        assert main(CLONE_FPBC) == 0
        assert capsys.readouterr().err == "finality: ok (bound=(5, 5), cones=755)\n"

    def test_negative_bound_is_input_error(self, capsys):
        assert main(CLONE_FPBC + ["--bound", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: size bounds must not be negative, got (-1, -1)\n")

    def test_padded_complement_fails_with_a_witness(self, capsys, monkeypatch):
        real = agree.cli.fpbc

        def padded(l, m, instance):
            # The complement plus a node over a, which m does not reach.
            fp = real(l, m, instance)
            d = fp.context
            ghost = Graph(d.nodes | {"ghost"}, dict(d.src), dict(d.tgt))
            return Fpbc(Morphism(fp.n.source, ghost, dict(fp.n.nodemap), dict(fp.n.edgemap)),
                        Morphism(ghost, fp.a.target, dict(fp.a.nodemap, ghost="a"), dict(fp.a.edgemap)))

        monkeypatch.setattr(agree.cli, "fpbc", padded)
        assert main(CLONE_FPBC) == 2
        assert capsys.readouterr().err == (
            "finality: FAILED (bound=(6, 5), cones=382)\n"
            + dumps({"competitor_edges": [], "competitor_nodes": {"a/0": "a"}, "count": 2,
                     "lift": {}, "reason": "factoring arrow not unique"})
            + "\n")


class TestCheckRule:
    def test_nonlocal_rule_reported(self, workdir, capsys):
        tmp, write = workdir
        elem = {"nodes": [{"id": "x", "type": "elem"}], "edges": []}
        rule = write("rule.json", {
            "mode": "AGREE",
            "typegraph": {"nodes": [{"id": "elem"}], "edges": []},
            "L": elem, "K": elem, "R": elem, "TK": elem,
            "l": {"nodes": {"x": "x"}, "edges": {}},
            "r": {"nodes": {"x": "x"}, "edges": {}},
            "t": {"nodes": {"x": "x"}, "edges": {}},
        })
        assert main(["check-rule", "--rule", rule]) == 0
        out = capsys.readouterr().out
        assert "local: false" in out
        assert "mode: AGREE" in out
        assert "embedding-in-M: true" in out

    def test_local_rule_reported(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        assert main(["check-rule", "--rule", rule]) == 0
        assert "local: true" in capsys.readouterr().out


class TestComplement:
    def test_interior_match(self, workdir, capsys):
        tmp, write = workdir
        point = {"nodes": [{"id": "x"}], "edges": []}
        m = write("m.json", {"source": point, "target": host_doc(),
                             "nodes": {"x": "v"}, "edges": {}})
        assert main(["complement", "--m", m]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [n["id"] for n in out["complement"]["nodes"]] == ["a", "b"]
        assert out["complement"]["edges"] == []

    def test_polarized_mono(self, workdir, capsys):
        tmp, write = workdir
        doc = {"source": {"nodes": [{"id": "x", "polarity": ["+", "-"]}], "edges": []},
               "target": _POLARIZED_HOST, "nodes": {"x": "v"}, "edges": {}}
        m = write("m.json", doc)
        assert main(["complement", "--m", m]) == 0
        comp, incl = strict_complement(parse_morphism(doc), GRPOL)
        assert capsys.readouterr().out == dumps({"complement": comp, "inclusion": morphism_doc(incl)})
        assert comp.node_labels == {"a": {"+"}, "b": {"-"}}


    def test_empty_source_into_a_polarized_graph(self, workdir, capsys):
        """The empty source has no polarity field; it is read in the
        polarized setting of its target."""
        tmp, write = workdir
        doc = {"source": {"nodes": [], "edges": []}, "target": _POLARIZED_HOST, "nodes": {}, "edges": {}}
        assert main(["complement", "--m", write("m.json", doc)]) == 0
        comp, incl = strict_complement(parse_morphism(doc), GRPOL)
        assert comp == parse_graph(_POLARIZED_HOST)
        assert capsys.readouterr().out == dumps({"complement": comp, "inclusion": incl})


class TestLaws:
    def test_single_law_passes(self, workdir, capsys):
        assert main(["laws", "--law", "ETA_CARTESIAN", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fpbc_final_law_default_bounds(self, workdir, capsys):
        assert main(["laws", "--law", "FPBC_FINAL"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("law, category, settings", [
        ("LOCALITY", "pol", "plain and typed graphs"),
        ("SQPO_AGREE", "pol", "plain and typed graphs"),
        ("PSQPO_AGREE", "pol", "plain graphs"),
    ])
    def test_law_outside_its_settings_is_input_error(self, law, category, settings, capsys):
        assert main(["laws", "--law", law, "--category", category]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {law} runs over {settings}\n"

    def test_fpbc_final_runs_over_polarized_graphs(self, capsys):
        # Seed 1 draws instances whose finality check takes well under a second.
        assert main(["laws", "--law", "FPBC_FINAL", "--category", "pol", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("FPBC_FINAL [grpol]: PASS")

    def test_negative_bound_is_input_error(self, capsys):
        assert main(["laws", "--law", "PHI_UNIQUE", "--bound", "-3"]) == 1
        assert capsys.readouterr() == ("", "error: size bounds must not be negative, got (-3, -2)\n")

    @pytest.mark.parametrize("category, kind, skipped", [
        ("gr", "gr", []),
        ("typed", "typed", ["PSQPO_AGREE"]),
        ("pol", "grpol", ["LOCALITY", "FPBC_FINAL", "SQPO_AGREE", "PSQPO_AGREE"]),
    ])
    @pytest.mark.parametrize("bound", [None, 2])
    def test_sweep_runs_each_law_of_the_category(self, category, kind, skipped, bound, capsys, monkeypatch):
        """Without ``--law``, ``agree laws`` runs every law of the category
        in ``LAW_IDS`` order, but ``FPBC_FINAL`` not over polarized graphs,
        at the bound ``(b, b + 1)``."""
        import agree.cli as cli
        from agree.laws import LAW_IDS, LawReport

        calls = []

        def recording(law_id, seed=0, size_bound=(4, 5), instance=None, count=None):
            calls.append((law_id, seed, size_bound, instance.kind))
            return LawReport(law_id, instance.kind, 1, True, 0, None, seed, size_bound)

        monkeypatch.setattr(cli, "run_law", recording)
        args = ["laws", "--category", category] + ([] if bound is None else ["--bound", str(bound)])
        assert main(args) == 0
        b = 4 if bound is None else bound
        laws = [law for law in LAW_IDS if law not in skipped]
        assert calls == [(law, 0, (b, b + 1), kind) for law in laws]
        assert len(laws) == 10 - len(skipped)
        assert capsys.readouterr().out.count(": PASS") == len(laws)

    def test_law_failure_exits_2(self, capsys, monkeypatch):
        import agree.cli as cli
        from agree.laws import LawReport

        def fake_run_law(law_id, seed=0, size_bound=(4, 5), instance=None, count=None):
            return LawReport(law_id, "gr", 1, False, 1, {"why": "forced"}, seed, size_bound)

        monkeypatch.setattr(cli, "run_law", fake_run_law)
        assert main(["laws", "--law", "ETA_CARTESIAN"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestErrors:
    def test_invalid_document_is_input_error(self, workdir, capsys):
        tmp, write = workdir
        rule = write("rule.json", identity_rule_doc())
        graph = write("graph.json", {
            "nodes": [{"id": "a"}],
            "edges": [{"id": "e", "src": "a", "tgt": "zz"}],
        })
        assert main(["apply", "--rule", rule, "--graph", graph]) == 1
        assert "dangling endpoint" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["check-rule", "--rule", "/does/not/exist.json"]) == 1


_STAR = {"nodes": [{"id": "*"}], "edges": []}

# Each case is an argv (documents in it are written to files first) and the
# error line it must give.
RESERVED = {
    "star node": (["classifier", "--graph", {"nodes": [{"id": "a"}, {"id": "*"}], "edges": []}],
                  "error: base graph already uses reserved star node ids: '*'"),
    "typed star nodes": (["classifier", "--typegraph", {"nodes": [{"id": "t"}, {"id": "s"}]},
                          "--graph", {"nodes": [{"id": "*:t", "type": "t"},
                                                {"id": "*:s", "type": "s"}], "edges": []}],
                         "error: base graph already uses reserved star node ids: '*:s', '*:t'"),
    "star edges": (["classifier", "--graph",
                    {"nodes": [{"id": "a"}],
                     "edges": [{"id": "*(a,a)", "src": "a", "tgt": "a"},
                               {"id": "*(*,a)", "src": "a", "tgt": "a"}]}],
                   "error: base graph already uses reserved star edge ids: '*(*,a)', '*(a,a)'"),
    "star node in K": (["check-rule", "--rule",
                        {"mode": "SQPO", "L": _STAR, "K": _STAR, "R": _STAR,
                         "l": {"nodes": {"*": "*"}, "edges": {}},
                         "r": {"nodes": {"*": "*"}, "edges": {}}}],
                       "error: base graph already uses reserved star node ids: '*'"),
}


@pytest.mark.parametrize("case", sorted(RESERVED))
def test_reserved_star_ids_are_named(case, workdir, capsys):
    tmp, write = workdir
    argv, message = RESERVED[case]
    argv = [arg if isinstance(arg, str) else write(f"doc{i}.json", arg)
            for i, arg in enumerate(argv)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def _psqpo_rule_doc(polarity):
    point = {"nodes": [{"id": "k"}], "edges": []}
    return {"mode": "PSQPO", "L": point, "K": point, "R": point,
            "l": {"nodes": {"k": "k"}, "edges": {}}, "r": {"nodes": {"k": "k"}, "edges": {}},
            "polarity": polarity}


_POINT = {"nodes": [{"id": "x"}], "edges": []}

# Each case is an argv; documents in it are written to files first.
HOSTILE = {
    "int node id": ["classifier", "--graph", {"nodes": [{"id": 1}], "edges": []}],
    "list node id": ["classifier", "--graph", {"nodes": [{"id": ["a"]}], "edges": []}],
    "list edge endpoint": ["apply", "--rule", identity_rule_doc(), "--graph",
                           {"nodes": [{"id": "a"}], "edges": [{"id": "e", "src": ["a"], "tgt": "a"}]}],
    "list polarity entry": ["classifier", "--graph", {"nodes": [{"id": "a", "polarity": [["+"]]}]}],
    "nodes not an array": ["classifier", "--graph", {"nodes": "a", "edges": []}],
    "graph is an array": ["classifier", "--graph", [{"id": "a"}]],
    "list morphism map value": ["complement", "--m", {"source": _POINT, "target": host_doc(),
                                                      "nodes": {"x": ["v"]}, "edges": {}}],
    "list morphism nodes map": ["complement", "--m", {"source": _POINT, "target": host_doc(),
                                                      "nodes": ["x"], "edges": {}}],
    "morphism is an array": ["fpbc", "--l", ["x"], "--m", ["x"]],
    "list polarity block": ["check-rule", "--rule", _psqpo_rule_doc(["k"])],
    "list polarity id": ["check-rule", "--rule", _psqpo_rule_doc({"plus": [["k"]], "minus": []})],
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_documents_give_positioned_errors(case, workdir, capsys):
    tmp, write = workdir
    argv = [arg if isinstance(arg, str) else write(f"doc{i}.json", arg)
            for i, arg in enumerate(HOSTILE[case])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: /") for line in err.splitlines()), err
    assert "Traceback" not in err


# Files ``json`` cannot read: bytes that are not UTF-8, arrays nested past
# the parser's recursion limit, text that is not JSON, and an integer with
# more digits than Python converts (4,300 by default).
UNREADABLE = {
    "undecodable": b'\xff\xfe{"nodes": []}',
    "over-deep": b"[" * 100000 + b"]" * 100000,
    "empty": b"",
    "truncated": b'{"nodes": {"x": "v"}, "edges": {',
    "long integer": b'{"nodes": [], "edges": [], "x": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("argv", [
    ["classifier", "--graph"], ["check-rule", "--rule"], ["complement", "--m"],
    ["apply", "--rule", str(FIXTURES / "clone_node_rule.json"), "--graph", str(FIXTURES / "chain_graph.json"),
     "--match"],
])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_files_are_input_errors(case, argv, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(UNREADABLE[case])
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _fixture(name, **changes):
    """The fixture document ``name`` with the given top-level fields set,
    or dropped where the value is ``None``."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


_POLARIZED_POINT = {"nodes": [{"id": "t", "polarity": ["+"]}], "edges": []}
_POLARITY = {"plus": ["k0"], "minus": []}
_CHAIN = str(FIXTURES / "chain_graph.json")
# A polarized host whose first node, isolated, has no polarity key.
_LATE_POLARITY_HOST = {"nodes": [{"id": "u"}, {"id": "a", "polarity": ["+"]}, {"id": "b", "polarity": ["-"]}],
                       "edges": [{"id": "ab", "src": "a", "tgt": "b"}]}
# A host with polarity on one node only, too little for its edge.
_PART_POLARITY_HOST = {"nodes": [{"id": "u"}, {"id": "a", "polarity": ["+"]}, {"id": "b"}],
                       "edges": [{"id": "ab", "src": "a", "tgt": "b"}]}
_NO_POLARITY = "a plain graph's nodes carry no polarity"


def _with_polarity(doc, graph):
    """The rule document ``doc`` with ``polarity`` on the first node of its graph ``graph``."""
    doc[graph]["nodes"][0]["polarity"] = ["+"]
    return doc


# The fixture type graph, with polarity on its one node.
_POLARIZED_TYPEGRAPH = _with_polarity(_fixture("web_copy_rule"), "typegraph")["typegraph"]
_TWO_POINTS = {"nodes": [{"id": "k0"}, {"id": "k1"}], "edges": []}
_ANONYMIZE = ["apply", "--rule", str(FIXTURES / "anonymize_rule.json"),
              "--graph", str(FIXTURES / "network_graph.json"), "--match"]

# Each case is an argv, with the documents in it written to files first, and
# the error lines it must give.
REJECTED = {
    "rule not an object": (["check-rule", "--rule", []], ["/: rule document must be an object"]),
    "unknown mode": (["check-rule", "--rule", _fixture("clone_node_rule", mode="DPO")],
                     ["/mode: mode must be AGREE, SQPO or PSQPO, got 'DPO'"]),
    "no mode": (["check-rule", "--rule", _fixture("clone_node_rule", mode=None)],
                ["/mode: mode must be AGREE, SQPO or PSQPO, got None"]),
    "missing field": (["apply", "--rule", _fixture("clone_node_rule", r=None), "--graph", _CHAIN],
                      ["/r: missing required field"]),
    "AGREE without embedding": (["check-rule", "--rule", _fixture("web_copy_rule", TK=None, t=None)],
                                ["/TK: AGREE rules need an explicit embedding",
                                 "/t: AGREE rules need an explicit embedding"]),
    "AGREE with polarity": (["check-rule", "--rule", _fixture("web_copy_rule", polarity=_POLARITY)],
                            ["/polarity: polarity belongs to PSQPO rules"]),
    "SQPO with polarity": (["apply", "--rule", _fixture("clone_node_rule", polarity=_POLARITY),
                            "--graph", _CHAIN],
                           ["/polarity: polarity belongs to PSQPO rules"]),
    "SQPO with embedding": (["check-rule", "--rule", _fixture("clone_node_rule", TK=_POINT)],
                            ["/TK: SQPO rules materialize their embedding; drop this field"]),
    "PSQPO without polarity": (["check-rule", "--rule", _fixture("clone_outgoing_rule", polarity=None)],
                               ["/polarity: PSQPO rules need a polarity block"]),
    "PSQPO with type graph": (["check-rule", "--rule",
                               _fixture("clone_outgoing_rule", typegraph=_fixture("web_copy_rule")["typegraph"])],
                              ["/typegraph: PSQPO rules live over plain graphs"]),
    "polarized type graph in a rule": (["check-rule", "--rule", _fixture("web_copy_rule", typegraph=_POLARIZED_POINT)],
                                       [f"/typegraph/nodes/0/polarity: {_NO_POLARITY}"]),
    "partly polarized type graph in a rule": (["check-rule", "--rule",
                                               _fixture("web_copy_rule", typegraph=_POLARIZED_TYPEGRAPH)],
                                              [f"/typegraph/nodes/0/polarity: {_NO_POLARITY}"]),
    "polarity in a plain rule's L": (["check-rule", "--rule", _with_polarity(_fixture("clone_node_rule"), "L")],
                                     [f"/L/nodes/0/polarity: {_NO_POLARITY}"]),
    "polarity in a plain step's L": (["apply", "--rule", _with_polarity(_fixture("clone_node_rule"), "L"),
                                      "--graph", _CHAIN],
                                     [f"/L/nodes/0/polarity: {_NO_POLARITY}"]),
    "polarity in an untyped AGREE rule's TK": (
        ["check-rule", "--rule", {**identity_rule_doc(), "mode": "AGREE", "t": {"nodes": {"x": "x"}, "edges": {}},
                                  "TK": {"nodes": [{"id": "x"}, {"id": "y", "polarity": ["+"]}], "edges": []}}],
        [f"/TK/nodes/1/polarity: {_NO_POLARITY}"]),
    "polarity in a PSQPO rule's K": (["check-rule", "--rule", _with_polarity(_fixture("clone_outgoing_rule"), "K")],
                                     [f"/K/nodes/0/polarity: {_NO_POLARITY}"]),
    "plus not an array": (["apply", "--rule", _fixture("clone_outgoing_rule", polarity={"plus": "k0", "minus": ["k1"]}),
                           "--graph", _CHAIN],
                          ["/polarity/plus: 'plus' must be an array of interface node ids"]),
    "minus not an array": (["check-rule", "--rule",
                            _fixture("clone_outgoing_rule", polarity={"plus": [], "minus": {}})],
                           ["/polarity/minus: 'minus' must be an array of interface node ids"]),
    "arrow without source": (["complement", "--m", _fixture("complement_arrow", source=None)],
                             ["/source: no source graph given or embedded"]),
    "arrow without target": (["complement", "--m", _fixture("complement_arrow", target=None)],
                             ["/target: no target graph given or embedded"]),
    "unknown target node": (["complement", "--m", _fixture("complement_arrow", nodes={"x": "w"})],
                            ["/nodes/x: unknown target node id 'w'"]),
    "match onto an unknown node": (["apply", "--rule", str(FIXTURES / "clone_node_rule.json"), "--graph", _CHAIN,
                                    "--match", _fixture("match_v", nodes={"x": "w"})],
                                   ["/nodes/x: unknown target node id 'w'"]),
    "polarized host for a plain rule": (["matches", "--rule", str(FIXTURES / "clone_node_rule.json"),
                                         "--graph", _LATE_POLARITY_HOST],
                                        [f"/nodes/1/polarity: {_NO_POLARITY}"]),
    "polarized host for a plain step": (["apply", "--rule", str(FIXTURES / "clone_node_rule.json"),
                                         "--graph", _LATE_POLARITY_HOST],
                                        [f"/nodes/1/polarity: {_NO_POLARITY}"]),
    "polarized host for a PSQPO rule": (["matches", "--rule", str(FIXTURES / "clone_outgoing_rule.json"),
                                         "--graph", _LATE_POLARITY_HOST],
                                        [f"/nodes/1/polarity: {_NO_POLARITY}"]),
    "partly polarized host": (["matches", "--rule", str(FIXTURES / "clone_node_rule.json"),
                               "--graph", _PART_POLARITY_HOST],
                              [f"/nodes/1/polarity: {_NO_POLARITY}"]),
    "polarized type graph": (["classifier", "--graph", _CHAIN, "--typegraph", _POLARIZED_POINT],
                             [f"/nodes/0/polarity: {_NO_POLARITY}"]),
    "partly polarized type graph": (["classifier", "--graph", str(FIXTURES / "web_graph.json"),
                                     "--typegraph", _POLARIZED_TYPEGRAPH],
                                    [f"/nodes/0/polarity: {_NO_POLARITY}"]),
    # A file path in an error line is written $tmp/<name>.
    "fpbc with an l that is not total": (
        ["fpbc", "--l", _fixture("clone_l", nodes={"k0": "x"}), "--m", str(FIXTURES / "complement_arrow.json")],
        ["$tmp/doc2.json: not a valid arrow: nodemap is not total on the source nodes"]),
    "fpbc with an m that is not a mono": (
        ["fpbc", "--l", {"source": {"nodes": [], "edges": []}, "target": _TWO_POINTS, "nodes": {}, "edges": {}},
         "--m", str(FIXTURES / "clone_l.json")],
        [f"{FIXTURES / 'clone_l.json'}: not an admissible mono"]),
    "match not a mono": (_ANONYMIZE + [_fixture("network_match",
                                                nodes={"x1": "u1", "x2": "u1", "x3": "u3", "x4": "u4"})],
                         ["/: the given match is not an admissible mono"]),
    "complement of a non-mono": (["complement", "--m", str(FIXTURES / "clone_l.json")],
                                 ["/: strict complements are taken of admissible monos"]),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_documents_name_their_position(case, workdir, capsys):
    """A document the parser or a command refuses exits 1 with exactly its
    ``error: <position>: <message>`` lines, and writes nothing else."""
    tmp, write = workdir
    argv, errors = REJECTED[case]
    argv = [arg if isinstance(arg, str) else write(f"doc{i}.json", arg) for i, arg in enumerate(argv)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "".join(f"error: {line}\n" for line in errors).replace("$tmp/", f"{tmp}{os.sep}")
    assert captured.out == ""
