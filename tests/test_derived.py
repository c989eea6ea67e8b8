"""Facts derived once and kept on read-only values.

``validate_morphism`` keeps its report on the morphism, ``bar`` the
classifying arrow on the mono it classifies, ``t_object`` the enlargement
on the object, and ``characteristic`` the final object and the two points
of T(1) on the instance.  Every kept fact must equal the one
computed afresh, failures must not be kept, and kept data must die with
its value.
"""

import gc
import random
import weakref

import pytest

import agree.classifier as classifier
from agree import (
    GR,
    GRPOL,
    CategoryInstance,
    Graph,
    Morphism,
    PreconditionError,
    StructuralError,
    bar,
    compose,
    default_instance,
    final_object,
    initial_object,
    identity,
    phi,
    run_law,
    t_morphism,
    t_object,
    validate_morphism,
    zero,
)
from agree.classifier import Characteristic, _into, characteristic
from agree.laws import _Gen

KINDS = ("gr", "typed", "pol")


def characteristic_oracle(m, instance):
    """``characteristic`` with nothing kept on the instance: every call
    builds the final object, T(1), T(0) and the ``false`` point afresh."""
    one = final_object(instance)
    chi = phi(m, _into(one, m.source, instance), instance)
    c_one = t_object(one, instance)
    c_zero = t_object(initial_object(instance), instance)
    b = _into(one, c_zero.total, instance)
    assert validate_morphism(b, instance).is_iso
    b_inv = Morphism(one, c_zero.total,
                     {v: k for k, v in b.nodemap.items()},
                     {v: k for k, v in b.edgemap.items()})
    false_pt = compose(t_morphism(zero(one, instance), instance), b_inv)
    return Characteristic(chi, c_one.unit, false_pt)


def _gen(kind, seed):
    return _Gen(random.Random(f"derived/{kind}/{seed}"), (4, 5), default_instance(kind))


def _copy_object(obj, instance):
    """A structurally equal object that shares no value with ``obj``."""
    labels = None if obj.node_labels is None else dict(obj.node_labels)
    edge_labels = None if obj.edge_labels is None else dict(obj.edge_labels)
    return Graph(frozenset(obj.nodes), dict(obj.src), dict(obj.tgt), labels, edge_labels, instance.typegraph)


def _copy_morphism(f, instance):
    return Morphism(_copy_object(f.source, instance), _copy_object(f.target, instance),
                    dict(f.nodemap), dict(f.edgemap))


def _scrambled(f, rng):
    """Same ends, random maps: mostly not a homomorphism, sometimes one."""
    tg = f.target
    nodes, edges = sorted(tg.nodes), sorted(tg.src)
    return Morphism(f.source, f.target,
                    {x: rng.choice(nodes) for x in f.nodemap} if nodes else {},
                    {e: rng.choice(edges) for e in f.edgemap} if edges else {})


@pytest.mark.parametrize("kind", KINDS)
def test_characteristic_matches_the_oracle(kind):
    inst = default_instance(kind)
    for seed in range(40):
        m = _gen(kind, seed).mono()
        assert characteristic(m, inst) == characteristic_oracle(m, inst)


@pytest.mark.parametrize("kind", KINDS)
def test_points_are_built_once_per_instance(kind):
    inst = default_instance(kind)
    gen = _gen(kind, 0)
    first, second = characteristic(gen.mono(), inst), characteristic(gen.mono(), inst)
    assert first.true_pt is second.true_pt and first.false_pt is second.false_pt
    m = gen.mono()
    fresh = characteristic(m, CategoryInstance(inst.kind, inst.typegraph))
    assert fresh == characteristic(m, inst)
    assert fresh.true_pt is not first.true_pt


@pytest.mark.parametrize("kind", KINDS)
def test_kept_enlargement_equals_a_fresh_one(kind):
    inst = default_instance(kind)
    for seed in range(20):
        y = _gen(kind, seed).object("y")
        first = t_object(y, inst)
        assert t_object(y, inst) == first
        assert t_object(_copy_object(y, inst), inst) == first


@pytest.mark.parametrize("kind", KINDS)
def test_kept_report_equals_a_fresh_one(kind):
    inst = default_instance(kind)
    rng = random.Random(f"scramble/{kind}")
    reports = set()
    for seed in range(30):
        gen = _gen(kind, seed)
        for f in (gen.morphism(), gen.mono(), _scrambled(gen.morphism(), rng)):
            first = validate_morphism(f, inst)
            assert validate_morphism(f, inst) == first
            assert validate_morphism(_copy_morphism(f, inst), inst) == first
            reports.add((first.valid, first.is_mono_in_M, first.is_iso))
    # Valid, invalid, mono and iso reports all went through the kept path.
    assert {r[0] for r in reports} == {True, False}
    assert (True, True, True) in reports and (True, True, False) in reports


@pytest.mark.parametrize("kind", KINDS)
def test_kept_classifying_arrow_equals_a_fresh_one(kind):
    inst = default_instance(kind)
    for seed in range(20):
        m = _gen(kind, seed).mono()
        first = bar(m, inst)
        assert bar(m, inst) is first
        fresh = bar(_copy_morphism(m, inst), inst)
        assert fresh == first == phi(m, identity(m.source), inst)
        assert list(fresh.nodemap.items()) == list(first.nodemap.items())
        assert list(fresh.edgemap.items()) == list(first.edgemap.items())


def test_a_wrong_instance_raises_after_a_kept_classifying_arrow():
    m = Morphism(Graph.build(["a"]), Graph.build(["a", "b"]), {"a": "a"}, {})
    kept = bar(m, GR)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            bar(m, GRPOL)
    assert bar(m, GR) is kept


def test_a_non_mono_is_not_classified_on_any_call():
    two, one = Graph.build(["a", "b"]), Graph.build(["c"])
    squash = Morphism(two, one, {"a": "c", "b": "c"}, {})
    for _ in range(2):
        with pytest.raises(PreconditionError):
            bar(squash, GR)


def test_dangling_entries_raise_on_every_call():
    x, y = Graph.build(["a"]), Graph.build(["b"])
    f = Morphism(x, y, {"a": "b", "ghost": "b"}, {})
    for _ in range(2):
        with pytest.raises(StructuralError):
            validate_morphism(f, GR)


def test_a_wrong_instance_raises_after_a_kept_report():
    f = Morphism(Graph.build(["a"]), Graph.build(["b"]), {"a": "b"}, {})
    assert validate_morphism(f, GR).is_iso
    for _ in range(2):
        with pytest.raises(PreconditionError):
            validate_morphism(f, GRPOL)
    assert validate_morphism(f, GR).is_iso


def test_a_wrong_instance_raises_after_a_kept_enlargement():
    y = Graph.build(["a"], {"e": ("a", "a")})
    kept = t_object(y, GR)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            t_object(y, GRPOL)
    assert t_object(y, GR) == kept


def test_a_reserved_id_raises_on_every_call():
    y = Graph.build(["*"])
    for _ in range(2):
        with pytest.raises(StructuralError):
            t_object(y, GR)


def test_a_non_mono_raises_on_every_call():
    two, one = Graph.build(["a", "b"]), Graph.build(["c"])
    squash = Morphism(two, one, {"a": "c", "b": "c"}, {})
    for _ in range(2):
        with pytest.raises(PreconditionError):
            characteristic(squash, GR)


@pytest.mark.parametrize("kind, law", [
    ("gr", "LOCALITY"), ("typed", "SQPO_AGREE"), ("pol", "COMPLEMENT_T0"), ("gr", "PSQPO_AGREE"),
])
def test_every_kept_enlargement_has_frozen_carriers(kind, law, monkeypatch):
    kept = []
    enlarge = classifier._enlarge

    def recording(y, instance):
        out = enlarge(y, instance)
        kept.append(out[0])
        return out

    monkeypatch.setattr(classifier, "_enlarge", recording)
    inst = default_instance(kind)
    assert run_law(law, seed=3, instance=inst, count=5).passed
    assert kept
    for total in kept:
        assert type(total.nodes) is frozenset
        if kind == "pol":
            assert all(type(caps) is frozenset for caps in total.node_labels.values())


def test_kept_facts_die_with_their_value():
    """No kept fact refers back to its value, so dropping the last
    reference frees the value without the cycle collector."""
    y = Graph.build(["a", "b"], {"e": ("a", "b")})
    f = t_object(y, GR).unit
    assert validate_morphism(f, GR).valid
    m = Morphism(Graph.build(["a"]), y, {"a": "a"}, {})
    assert bar(m, GR).source is y
    refs = [weakref.ref(y), weakref.ref(f), weakref.ref(m)]
    gc.disable()
    try:
        del y, f, m
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_kept_facts_stay_out_of_equality_and_repr():
    y, fresh = Graph.build(["a"]), Graph.build(["a"])
    t_object(y, GR)
    assert y == fresh and repr(y) == repr(fresh)
