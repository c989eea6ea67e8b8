"""``validate_morphism`` against the oracle in ``validate_reference.py``.

The first call on an arrow checks its map entries in the pass that
computes the report; the oracle walks them once to check them and again
to report.  Both must give equal reports, raise the same error with the
same message for the same first dangling entry, and keep checking the
ends and the entries on every later call.
"""

import random
import re

import pytest

import validate_reference as reference
from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    PreconditionError,
    StructuralError,
    bar,
    default_instance,
    phi,
    pullback,
    t_morphism,
    t_object,
    validate_morphism,
)
from agree.laws import _Gen

KINDS = ("gr", "typed", "pol")


def outcome(validate, f, instance):
    """The report of ``validate(f, instance)``, or the type and message of
    the error it raises."""
    try:
        return validate(f, instance)
    except (StructuralError, PreconditionError) as exc:
        return type(exc), str(exc)


def copy(f, nodemap=None, edgemap=None):
    """A fresh arrow, with no kept report, between ``f``'s ends."""
    return Morphism(f.source, f.target, dict(f.nodemap if nodemap is None else nodemap),
                    dict(f.edgemap if edgemap is None else edgemap))


def assert_same(f, instance):
    """A first and a repeated call agree with the oracle's, each on its own
    copy of ``f``; returns the first outcome."""
    ours, theirs = copy(f), copy(f)
    first = outcome(validate_morphism, ours, instance)
    assert first == outcome(reference.validate_morphism, theirs, instance)
    assert outcome(validate_morphism, ours, instance) == first
    assert outcome(reference.validate_morphism, theirs, instance) == first
    return first


def generated_arrows(gen, instance):
    """Drawn arrows and the arrows the constructions build from them."""
    f = gen.morphism()
    m, g = gen.partial_map()
    yield from (f, m, g, gen.mono())
    yield t_object(f.source, instance).unit
    yield t_morphism(f, instance)
    yield phi(m, g, instance)
    yield bar(m, instance)
    pb = pullback(bar(m, instance), t_object(m.source, instance).unit, instance)
    yield from (pb.p1, pb.p2)


def mutants(f):
    """``(what, nodemap, edgemap)``: ``f``'s maps, broken one way each."""
    tg = f.target
    nm, em = f.nodemap, f.edgemap
    xs, es = list(nm), list(em)
    some_node = min(tg.nodes, default="ghost")
    some_edge = min(tg.src, default="ghost")
    out = [
        ("unknown source node", {**nm, "ghost": some_node}, em),
        ("unknown source edge", nm, {**em, "ghost": some_edge}),
    ]
    if xs:
        out += [
            ("unknown target node", {**nm, xs[0]: "ghost"}, em),
            ("unknown target node last", {**nm, xs[-1]: "ghost"}, em),
            ("node map not total", {x: nm[x] for x in xs[1:]}, em),
            # A dangling image first and a dangling key after it: keys are checked first.
            ("unknown target node, then unknown source node", {**nm, xs[0]: "ghost", "ghost": some_node}, em),
            ("collapsed nodes", dict.fromkeys(xs, nm[xs[0]]), em),
        ]
        for y in sorted(tg.nodes):
            if y != nm[xs[0]]:
                out.append(("moved node", {**nm, xs[0]: y}, em))
                break
    if es:
        out += [
            ("unknown target edge", nm, {**em, es[0]: "ghost"}),
            ("unknown target edge last", nm, {**em, es[-1]: "ghost"}),
            ("edge map not total", nm, {e: em[e] for e in es[1:]}),
            ("unknown target edge, then unknown source edge", nm, {**em, es[0]: "ghost", "ghost": some_edge}),
            ("unknown target node and edge", {**nm, xs[0]: "ghost"}, {**em, es[0]: "ghost"}),
            ("node map not total, unknown target edge", {x: nm[x] for x in xs[1:]}, {**em, es[-1]: "ghost"}),
        ]
        for d in sorted(tg.src):
            if (tg.src[d], tg.tgt[d]) != (tg.src[em[es[0]]], tg.tgt[em[es[0]]]):
                out.append(("bent edge", nm, {**em, es[0]: d}))
                # A bent edge first and a dangling image after it: the dangling one raises.
                out.append(("bent edge, then unknown target edge", nm, {**em, es[0]: d, es[-1]: "ghost"}))
                break
        if len(es) > 1:
            out.append(("collapsed edges", nm, dict.fromkeys(es, em[es[0]])))
    return out


def describe(result) -> frozenset:
    """What an outcome says, ids left out, to show the comparisons are not
    vacuous."""
    if isinstance(result, tuple):
        return frozenset([re.sub(r" '.*'$", "", result[1])])
    if result.problems:
        return frozenset(re.sub(r"'.*?' ", "", p) for p in result.problems)
    return frozenset(["mono" if result.is_mono_in_M else "valid"])


@pytest.mark.parametrize("kind", KINDS)
def test_generated_arrows_and_their_mutants_match_the_oracle(kind):
    inst = default_instance(kind)
    seen = set()
    for seed in range(25):
        gen = _Gen(random.Random(f"validate/{kind}/{seed}"), (4, 5), inst)
        for f in generated_arrows(gen, inst):
            seen |= describe(assert_same(f, inst))
            for _, nodemap, edgemap in mutants(f):
                seen |= describe(assert_same(copy(f, nodemap, edgemap), inst))
    expected = {
        "valid", "mono",
        "nodemap mentions unknown source node", "nodemap targets unknown node",
        "edgemap mentions unknown source edge", "edgemap targets unknown edge",
        "nodemap is not total on the source nodes", "edgemap is not total on the source edges",
        "edge is not mapped homomorphically",
    }
    if kind != "gr":
        expected.add("labels are not preserved")
    assert expected <= seen, expected - seen


@pytest.mark.parametrize("kind", KINDS)
def test_a_repeated_call_in_the_wrong_instance_raises(kind):
    inst = default_instance(kind)
    gen = _Gen(random.Random(f"validate/wrong/{kind}"), (4, 5), inst)
    f = gen.morphism()
    assert validate_morphism(f, inst).valid
    others = [other for other in (GR, GRPOL, default_instance("typed")) if other.kind != inst.kind]
    for other in others:
        with pytest.raises(PreconditionError, match="does not belong to instance"):
            validate_morphism(f, other)
        assert outcome(validate_morphism, f, other) == outcome(reference.validate_morphism, f, other)
    assert validate_morphism(f, inst).valid


def test_entries_are_checked_again_after_the_report_is_kept():
    """Values are read-only by contract, but every call still checks the
    entries: a dangling one added after the first call raises."""
    g = Graph.build(["a", "b"], {"e": ("a", "b")})
    f = Morphism(g, g, {"a": "a", "b": "b"}, {"e": "e"})
    twin = copy(f)
    assert validate_morphism(f, GR).is_iso
    assert reference.validate_morphism(twin, GR).is_iso
    for arrow in (f, twin):
        arrow.edgemap["e"] = "ghost"
    assert outcome(validate_morphism, f, GR) == outcome(reference.validate_morphism, twin, GR) == (
        StructuralError, "edgemap targets unknown edge 'ghost'")
