"""The law runner: determinism, generators, and negative controls."""

import pytest

from agree import (
    GR,
    Graph,
    Morphism,
    PreconditionError,
    TypedGraph,
    UnknownLawError,
    agree_rule,
    default_instance,
    generate,
    identity,
    is_local_rule,
    run_law,
    set_category,
    validate_morphism,
)
from agree.io import parse_morphism, parse_rule
from agree.laws import LAW_IDS


class TestGenerate:
    def test_zero_bound_gives_empty_graph(self):
        g = generate("graph", 3, 0)
        assert not g.nodes and not g.src

    def test_monos_are_admissible_for_all_seeds(self):
        for inst in (GR, default_instance("typed"), default_instance("pol")):
            for seed in range(30):
                m = generate("mono", seed, (4, 4), inst)
                assert validate_morphism(m, inst).is_mono_in_M

    def test_same_seed_same_value(self):
        for kind in ("graph", "mono", "morphism", "span-rule", "psqpo-rule"):
            a = generate(kind, 11, (4, 4))
            b = generate(kind, 11, (4, 4))
            if kind in ("span-rule", "psqpo-rule"):
                assert a.l == b.l and a.r == b.r and a.t == b.t
            else:
                assert a == b

    def test_morphisms_valid_for_all_seeds(self):
        for inst in (GR, default_instance("typed"), default_instance("pol")):
            for seed in range(30):
                f = generate("morphism", seed, (4, 4), inst)
                assert validate_morphism(f, inst).valid

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            generate("hypergraph", 0, (3, 3))

    @pytest.mark.parametrize("bound", [-1, (-1, 5), (4, -1)])
    def test_negative_bound_is_refused(self, bound):
        with pytest.raises(PreconditionError, match="must not be negative"):
            generate("graph", 0, bound)

    @pytest.mark.parametrize("bound", [(3,), (1, 2, 3), "ab", None])
    def test_malformed_bound_is_refused(self, bound):
        with pytest.raises(PreconditionError, match="a size bound is an integer or a"):
            generate("graph", 0, bound)


class TestRunLaw:
    def test_unknown_law(self):
        with pytest.raises(UnknownLawError):
            run_law("FLUX_CAPACITOR", 0, (3, 3), GR)

    def test_all_laws_pass_smoke(self):
        for law in LAW_IDS:
            rep = run_law(law, seed=0, size_bound=(3, 3), instance=GR, count=8)
            assert rep.passed, (law, rep.first_counterexample)
            assert rep.count == 8 and rep.seed == 0

    @pytest.mark.parametrize("bound", [-3, (-1, 5), (4, -1)])
    def test_negative_bound_is_refused(self, bound):
        with pytest.raises(PreconditionError, match="must not be negative"):
            run_law("ETA_CARTESIAN", seed=0, size_bound=bound, instance=GR, count=1)

    @pytest.mark.parametrize("bound", [(3,), (1, 2, 3), "ab", None, 2.5, (2.5, 3)])
    def test_malformed_bound_is_refused(self, bound):
        with pytest.raises(PreconditionError, match="a size bound is an integer or a"):
            run_law("ETA_CARTESIAN", seed=0, size_bound=bound, instance=GR, count=1)

    def test_integer_bound_bounds_edges_by_one_more(self):
        assert run_law("ETA_CARTESIAN", seed=0, size_bound=3, count=0).size_bound == (3, 4)
        assert run_law("ETA_CARTESIAN", seed=0, size_bound=0, count=0).size_bound == (0, 0)
        assert run_law("ETA_CARTESIAN", seed=0, size_bound=[3, 5], count=0).size_bound == (3, 5)

    @pytest.mark.parametrize("count", [-1, 2.5, "3"])
    def test_malformed_count_is_refused(self, count):
        with pytest.raises(PreconditionError, match="non-negative number of instances"):
            run_law("ETA_CARTESIAN", seed=0, size_bound=(3, 3), instance=GR, count=count)

    def test_reports_are_deterministic(self):
        a = run_law("ETA_CARTESIAN", seed=5, size_bound=(3, 3), instance=GR, count=5)
        b = run_law("ETA_CARTESIAN", seed=5, size_bound=(3, 3), instance=GR, count=5)
        assert a == b

    def test_negative_control_fails_with_recheckable_counterexample(self):
        inst = set_category()
        tg = inst.typegraph
        g = Graph.build(["x"])
        lhs = TypedGraph(g, tg, Morphism(g, tg, {"x": "elem"}, {}))
        nonlocal_rule = agree_rule(identity(lhs), identity(lhs), identity(lhs), inst)
        rep = run_law("LOCALITY", seed=0, size_bound=(3, 3), instance=inst,
                      count=3, inject=nonlocal_rule)
        assert not rep.passed
        assert rep.failures == 1
        assert rep.first_counterexample is not None

        # replay the serialized counterexample through the public parser
        rule2, inst2 = parse_rule(rep.first_counterexample["rule"])
        assert not is_local_rule(rule2, inst2)
        m2 = parse_morphism(rep.first_counterexample["match"], typegraph=inst2.typegraph)
        assert validate_morphism(m2, inst2).is_mono_in_M

    def test_typed_category_covers_all_but_polarized_law(self):
        inst = default_instance("typed")
        for law in ("ETA_CARTESIAN", "PHI_UNIQUE", "COMPLEMENT_T0", "SQPO_AGREE"):
            rep = run_law(law, seed=1, size_bound=(3, 3), instance=inst, count=6)
            assert rep.passed, (law, rep.first_counterexample)


def _serialize(value, inst):
    """Canonical JSON of a generated value, with its endpoint objects embedded."""
    from agree import Morphism, Rule
    from agree.io import dumps, graph_doc, morphism_doc, rule_doc

    if isinstance(value, Rule):
        return dumps(rule_doc(value, inst))
    if isinstance(value, Morphism):
        return dumps(morphism_doc(value, with_objects=True))
    return dumps(graph_doc(value))


# sha256 over the serialized values of seeds 0-19, size bound (4, 5).
GENERATE_DIGESTS = {
    ("gr", "graph"): "807485a74f656bba5c7b27ffa4675d6bb44a729a7f391100b3895f3b14089138",
    ("gr", "mono"): "a47041d2e8a461d908fe2b87a0a48ace1b08f85f1930b1c519ff90a405515fc8",
    ("gr", "morphism"): "18f732b030a2dc33e62c51a1cb841b7fb6ba6c35abbd808388897260209ec986",
    ("gr", "span-rule"): "13e7ca500586eb986a4e59d5291a61642e34ecd0a47e9db63741f7fbb955015a",
    ("gr", "psqpo-rule"): "421065e8e56b5cb314b10b95f9087344bbf09c88b57dcf54b952ddb045372c07",
    ("typed", "graph"): "31ccf16c560aa564f1164f324e01631496fbb791d4378176dbfdaf81d0092b0b",
    ("typed", "mono"): "01e1a10b379c50c281d32b139c65aff44b1fdda50f14f4a7f21043efb505e464",
    ("typed", "morphism"): "00f110482e3f5b352dc9cc73c9020dccd5c93f84e29e19936d06e41c5e236eb1",
    ("typed", "span-rule"): "bd204ff2fd0c8c42759efc1c7523f02163ea83e1eec353d061ef5e55803ff79a",
    ("pol", "graph"): "30919b4f718b3548f7bab2956166f36fc00dd471960bc897a2d9bc885c68e734",
    ("pol", "mono"): "783dcbcfb1d012b02e230842b0debc28114b5c6f1ffb7fb77a95043ad31def84",
    ("pol", "morphism"): "c189d1a7bf55e949331ec37be273f2be6296a10676f8ea288e5ba44196e141e9",
    ("pol", "span-rule"): "f08b6cd1ed24afd052e522a10ef19dd26c685d8914fbe7d8b94a31e8f782868d",
}


@pytest.mark.parametrize("category,kind", sorted(GENERATE_DIGESTS))
def test_generate_draws_are_pinned(category, kind):
    import hashlib

    inst = default_instance(category)
    text = "".join(_serialize(generate(kind, seed, (4, 5), inst), inst) for seed in range(20))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATE_DIGESTS[(category, kind)]


_DRAW_SCRIPT = """
import random
from agree.laws import _Gen, default_instance
from test_laws import _serialize

inst = default_instance("typed")
for seed in range(30):
    gen = _Gen(random.Random(f"hash/{seed}"), (4, 5), inst)
    rule = gen.local_rule()
    print(_serialize(rule, inst) + _serialize(gen.match_onto(rule.lhs), inst))
    print(_serialize(gen.mono(), inst))
"""


def test_draws_do_not_depend_on_the_hash_seed():
    import os
    import pathlib
    import subprocess
    import sys

    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _DRAW_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
