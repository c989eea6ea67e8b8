"""Rewrite steps against the step computed from the paper's definition in
``step_reference.py``: every fixture rule at every match, the laws' random
draws, and 200-node hosts; and four broken steps the reference must
catch where the engine's own checks pass them."""

import ast
import json
import pathlib
import random
from unittest import mock

import pytest

import agree.laws
import agree.rewrite
from agree import (
    GR,
    Graph,
    Morphism,
    PreconditionError,
    Pullback,
    Pushout,
    agree_step,
    phi,
    psqpo_step,
    pullback,
    pushout_along_mono,
    run_law,
    typed_over,
    validate_morphism,
)
from agree.io import parse_graph, parse_morphism, parse_rule
from agree.laws import DEFAULT_TYPEGRAPH
from agree.rewrite import enumerate_matches
import step_reference
from step_reference import assert_same_step, reference_step
from test_reference_checks import run_optimized

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Every fixture rule, with the fixture host it is written for.
RULES_AND_HOSTS = [
    ("clone_node_rule", "chain_graph"),
    ("clone_outgoing_rule", "chain_graph"),
    ("delete_node_rule", "chain_graph"),
    ("web_copy_rule", "web_graph"),
    ("nonlocal_keep_one_rule", "three_elements_graph"),
    ("anonymize_rule", "network_graph"),
]


def _load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def _rule(name):
    return parse_rule(_load(name))


def _check_step(rule, m, instance):
    """The step of ``rule`` at ``m`` through every step function that runs
    it, each against the reference."""
    ref = reference_step(rule, m, instance)
    assert_same_step(agree_step(rule, m, instance), ref)
    if rule.mode == "PSQPO":
        assert_same_step(psqpo_step(rule, m), ref)


def test_reference_uses_no_engine_construction():
    """The reference reads the setting's table and the graph class only."""
    tree = ast.parse(pathlib.Path(step_reference.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported == {"NamedTuple", "Optional", "GR", "GRPOL", "Graph", "PolarizedGraph", "pol_induce"}


@pytest.mark.parametrize("rule_name, host_name", RULES_AND_HOSTS)
def test_fixture_rules_at_every_match(rule_name, host_name):
    rule, instance = _rule(rule_name)
    host = parse_graph(_load(host_name), instance.typegraph)
    matches = enumerate_matches(rule.lhs, host, instance)
    assert matches
    for m in matches:
        _check_step(rule, m, instance)


@pytest.mark.parametrize("law, kind", [
    ("SQPO_AGREE", "gr"), ("SQPO_AGREE", "typed"), ("PSQPO_AGREE", "gr"),
    ("LOCALITY", "gr"), ("LOCALITY", "typed"),
])
def test_law_draws(law, kind, monkeypatch):
    """Every step a law takes on its random draws, through either step
    function, is the reference's."""
    instance = GR if kind == "gr" else typed_over(DEFAULT_TYPEGRAPH)
    step, polarized_step = agree.laws.agree_step, agree.laws.psqpo_step
    checked = []

    def checked_step(rule, m, instance):
        trace = step(rule, m, instance)
        assert_same_step(trace, reference_step(rule, m, instance))
        checked.append(rule.mode)
        return trace

    def checked_polarized_step(rule, m):
        trace = polarized_step(rule, m)
        assert_same_step(trace, reference_step(rule, m, GR))
        checked.append(rule.mode)
        return trace

    monkeypatch.setattr(agree.laws, "agree_step", checked_step)
    monkeypatch.setattr(agree.laws, "psqpo_step", checked_polarized_step)
    for seed in (0, 1):
        report = run_law(law, seed=seed, instance=instance)
        assert report.passed
    assert len(checked) >= 2 * report.count


def _random_host(rng, typegraph, n=200, m=600):
    """A seeded random host with ``n`` nodes and ``m`` edges, typed over
    ``typegraph`` if there is one (then with no edges if it has no edge
    types)."""
    nodes = [f"v{i}" for i in range(n)]
    if typegraph is None:
        return Graph.build(nodes, {f"e{i}": (rng.choice(nodes), rng.choice(nodes)) for i in range(m)})
    types = sorted(typegraph.nodes)
    node_types = {x: rng.choice(types) for x in nodes}
    of_type = {t: [x for x in nodes if node_types[x] == t] for t in types}
    edges, edge_types = {}, {}
    edge_type_list = sorted(typegraph.src)
    for i in range(m if edge_type_list else 0):
        et = rng.choice(edge_type_list)
        ends = of_type[typegraph.src[et]], of_type[typegraph.tgt[et]]
        if ends[0] and ends[1]:
            edges[f"e{i}"] = (rng.choice(ends[0]), rng.choice(ends[1]))
            edge_types[f"e{i}"] = et
    return Graph.build(nodes, edges, node_types, edge_types, typegraph)


def _random_match(rng, lhs, host, instance):
    """An injective, type-preserving match of the edge-free ``lhs``."""
    assert not lhs.src
    free = sorted(host.nodes)
    rng.shuffle(free)
    nodemap = {}
    for y in sorted(lhs.nodes):
        x = next(x for x in free if lhs.node_labels is None or host.node_labels[x] == lhs.node_labels[y])
        free.remove(x)
        nodemap[y] = x
    m = Morphism(lhs, host, nodemap, {})
    assert validate_morphism(m, instance).is_mono_in_M
    return m


@pytest.mark.parametrize("rule_name", [rule for rule, _ in RULES_AND_HOSTS])
def test_fixture_rules_on_200_node_hosts(rule_name):
    rule, instance = _rule(rule_name)
    rng = random.Random(f"step-reference/{rule_name}")
    for _ in range(2):
        host = _random_host(rng, instance.typegraph)
        _check_step(rule, _random_match(rng, rule.lhs, host, instance), instance)


# -- broken steps ------------------------------------------------------------------
#
# Each mutant breaks ``agree_step`` through one of its constructions in a way
# that every check of the engine lets through; only the reference sees it.

def _restricted(pb: Pullback, nodes: list, edges: list) -> Pullback:
    """``pb`` with its apex cut down to ``nodes`` and ``edges``, each listed
    in the order the new apex and projections list them."""
    apex = Graph(frozenset(nodes), {e: pb.apex.src[e] for e in edges}, {e: pb.apex.tgt[e] for e in edges})

    def leg(p):
        return Morphism(apex, p.target, {x: p.nodemap[x] for x in nodes}, {e: p.edgemap[e] for e in edges})

    return Pullback(apex, leg(pb.p1), leg(pb.p2), pb.f, pb.g)


def dropped_star_partner(f, g, instance):
    """The pullback without one pair of a host node and a star of TK."""
    pb = pullback(f, g, instance)
    dropped = next(x for x, s in pb.p2.nodemap.items() if s.startswith("*"))
    edges = [e for e in pb.apex.src if dropped not in pb.apex.ends(e)]
    return _restricted(pb, [x for x in pb.p1.nodemap if x != dropped], edges)


def swapped_pair_order(f, g, instance):
    """The pullback with its first two node pairs listed the other way round."""
    pb = pullback(f, g, instance)
    first, second, *rest = pb.p1.nodemap
    return _restricted(pb, [second, first, *rest], list(pb.apex.src))


def misglued_rhs_item(n, r, instance):
    """The pushout with the names of R's two nodes swapped throughout, so
    that the square still commutes: each clone is glued under the other's
    ``R:`` name."""
    po = pushout_along_mono(n, r, instance)
    swap = {"R:k0": "R:k1", "R:k1": "R:k0"}

    def rename(x):
        return swap.get(x, x)

    h = po.result
    result = Graph(frozenset(map(rename, h.nodes)), {e: rename(x) for e, x in h.src.items()},
                   {e: rename(x) for e, x in h.tgt.items()})

    def leg(p):
        return Morphism(p.source, result, {x: rename(y) for x, y in p.nodemap.items()}, p.edgemap)

    return Pushout(result, leg(po.h), leg(po.p))


def _absorbed(items, hit):
    """The first of ``items`` that the mono of ``phi`` does not hit: one
    that ``phi`` absorbs into the star part."""
    return next(x for x in items if x not in hit)


def misnamed_star_edge(m, f, instance):
    """``phi`` naming the first star edge it absorbs an edge into without
    its ``*`` mark: an id that T(L) lacks.  ``phi`` no longer validates its
    arrow, and the step's pullback only pairs edges over equal images."""
    out = phi(m, f, instance)
    e = _absorbed(out.edgemap, set(m.edgemap.values()))
    return Morphism(out.source, out.target, out.nodemap, {**out.edgemap, e: out.edgemap[e][1:]})


def unabsorbed_node(m, f, instance):
    """``phi`` leaving the first node it absorbs without an image."""
    out = phi(m, f, instance)
    x = _absorbed(out.nodemap, set(m.nodemap.values()))
    return Morphism(out.source, out.target, {y: z for y, z in out.nodemap.items() if y != x}, out.edgemap)


MUTANTS = [
    ("pullback", dropped_star_partner),
    ("pullback", swapped_pair_order),
    ("pushout_along_mono", misglued_rhs_item),
    ("phi", misnamed_star_edge),
]


def _clone_step():
    rule, instance = _rule("clone_node_rule")
    host = parse_graph(_load("chain_graph"), instance.typegraph)
    m = parse_morphism(_load("match_v"), source=rule.lhs, target=host)
    return rule, m, instance


def mutant_step(name: str, mutant):
    """The clone step at ``v`` with ``agree_step``'s ``name`` replaced by
    ``mutant``, and the reference step."""
    rule, m, instance = _clone_step()
    with mock.patch.object(agree.rewrite, name, mutant):
        trace = agree_step(rule, m, instance)
    return trace, reference_step(rule, m, instance)


def test_unbroken_clone_step_passes():
    assert_same_step(*mutant_step("pullback", pullback))


@pytest.mark.parametrize("name, mutant", MUTANTS, ids=[mutant.__name__ for _, mutant in MUTANTS])
def test_broken_step_fails_the_reference(name, mutant):
    trace, ref = mutant_step(name, mutant)  # the engine's own checks pass it
    with pytest.raises(AssertionError):
        assert_same_step(trace, ref)


def test_unabsorbed_node_is_refused_by_the_pullback():
    """``l'`` without an image for the star of TK is not total, so the step
    stops at the pullback with an error naming the leg."""
    with pytest.raises(PreconditionError, match="the second leg is not a valid morphism"):
        mutant_step("phi", unabsorbed_node)


def test_broken_step_fails_the_reference_under_optimized_python():
    result = run_optimized(
        "from test_step_reference import mutant_step, misglued_rhs_item; "
        "from step_reference import assert_same_step; "
        "assert_same_step(*mutant_step('pushout_along_mono', misglued_rhs_item))")
    assert result.returncode != 0
    assert "AssertionError: H: src differs" in result.stderr, result.stderr
