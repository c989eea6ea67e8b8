"""The finality oracle against its earlier, independent implementation.

``agree.fpbc_verify`` counts factoring arrows with the shared matcher and
checks one competitor per orbit of copy permutations; the reference in
``fpbc_reference`` checks every competitor with its own search.  Their
reports must agree field by field, the reference's ``count`` read as
"two or more" from 2 on.
"""

import dataclasses
import random
from itertools import permutations, product

import pytest

import agree.rewrite
from agree import Graph, Morphism, PreconditionError, default_instance, fpbc, fpbc_verify
from agree.laws import _Gen

import fpbc_reference

OUTCOMES = {"ok", "square is not a pullback", "factoring arrow not unique", "no factoring arrow"}


def report(rep):
    doc = dataclasses.asdict(rep)
    witness = doc["counterexample"]
    if witness and "count" in witness:
        witness["count"] = min(witness["count"], 2)
    return doc


@pytest.mark.parametrize("kind", ["gr", "typed", "pol"])
def test_reports_equal_the_reference(kind):
    instance = default_instance(kind)
    seen = set()
    for seed in range(20):
        l, m = _Gen(random.Random(seed), (3, 3), instance).fpbc_pair()
        fp = fpbc(l, m, instance)
        cases = {"complement": (fp.n, fp.a), **fpbc_reference.mutants(fp, m, instance)}
        for name, (n, a) in cases.items():
            expected = report(fpbc_reference.fpbc_verify(l, m, n, a, instance, size_bound=(3, 3)))
            assert report(fpbc_verify(l, m, n, a, instance, size_bound=(3, 3))) == expected, (seed, name)
            seen.add("ok" if expected["ok"] else expected["counterexample"]["reason"])
    assert seen == OUTCOMES


def test_witness_names_the_first_lift_in_the_order_of_k():
    # K = {k0, k1} clones v.  D's ids sort n(k1) before n(k0); a -> v is
    # tripled into n(k0) and missing into n(k1), so the two lifts of the
    # competitor a -> v fail differently.
    two, point = Graph.build(["k0", "k1"]), Graph.build(["x"])
    host = Graph.build(["a", "v", "b"], {"av": ("a", "v"), "vb": ("v", "b")})
    l = Morphism(two, point, {"k0": "x", "k1": "x"}, {})
    m = Morphism(point, host, {"x": "v"}, {})
    d = Graph.build(["a", "z0", "y1", "b"], {"e1": ("a", "z0"), "e2": ("a", "z0"), "e3": ("a", "z0"),
                                               "e4": ("z0", "b"), "e5": ("y1", "b")})
    n = Morphism(two, d, {"k0": "z0", "k1": "y1"}, {})
    a = Morphism(d, host, {"a": "a", "z0": "v", "y1": "v", "b": "b"},
                 {"e1": "av", "e2": "av", "e3": "av", "e4": "vb", "e5": "vb"})
    instance = default_instance("gr")
    got = fpbc_verify(l, m, n, a, instance)
    assert report(got) == report(fpbc_reference.fpbc_verify(l, m, n, a, instance))
    assert got.counterexample["lift"] == {"v/0": "k0"}
    assert got.counterexample["count"] == 2  # three arrows: "two or more"


@pytest.mark.parametrize("bound", [-1, (-1, 3), (3, -1)])
def test_negative_bound_is_refused(bound):
    instance = default_instance("gr")
    l, m = _Gen(random.Random(0), (3, 3), instance).fpbc_pair()
    fp = fpbc(l, m, instance)
    with pytest.raises(PreconditionError, match="must not be negative"):
        fpbc_verify(l, m, fp.n, fp.a, instance, size_bound=bound)


@pytest.mark.parametrize("bound", [(3,), (1, 2, 3), 2.5, "ab"])
def test_malformed_bound_is_refused(bound):
    instance = default_instance("gr")
    l, m = _Gen(random.Random(0), (3, 3), instance).fpbc_pair()
    fp = fpbc(l, m, instance)
    with pytest.raises(PreconditionError, match="a size bound is an integer or a"):
        fpbc_verify(l, m, fp.n, fp.a, instance, size_bound=bound)


def test_integer_bound_bounds_nodes_and_edges_alike():
    instance = default_instance("gr")
    l, m = _Gen(random.Random(0), (3, 3), instance).fpbc_pair()
    fp = fpbc(l, m, instance)
    assert fpbc_verify(l, m, fp.n, fp.a, instance, size_bound=2).bound == (2, 2)
    assert fpbc_verify(l, m, fp.n, fp.a, instance, size_bound=[2, 1]).bound == (2, 1)


def _orbit_key(copies, edges):
    """The least form of a competitor under permutations of its copies
    inside each fibre."""
    fibres = {}
    for cid, (x, _) in enumerate(copies):
        fibres.setdefault(x, []).append(cid)
    forms = []
    for images in product(*map(permutations, fibres.values())):
        sigma = dict(zip((cid for fibre in fibres.values() for cid in fibre),
                         (cid for image in images for cid in image)))
        forms.append(sorted((ge, sigma[s], sigma[t]) for ge, s, t in edges))
    return tuple(copies), tuple(map(tuple, min(forms)))


@pytest.mark.parametrize("kind", ["gr", "typed", "pol"])
def test_one_competitor_per_orbit_is_checked_with_every_labelling(kind, monkeypatch):
    instance = default_instance(kind)
    checked, listed = {}, {}
    real_factoring, real_cone = agree.rewrite._factoring_check, fpbc_reference._check_cone

    def factoring(*args):
        check = real_factoring(*args)

        def recording(copies, edges, labels):
            checked.setdefault((tuple(copies), tuple(edges)), []).append(list(labels))
            return check(copies, edges, labels)
        return recording

    def cone(copies, edges, f_node, pol, *rest):
        labels = rest[6].target.node_labels  # the reference's m
        if pol is None:
            pol = [None if labels is None else labels[x] for x, _ in copies]
        listed.setdefault((tuple(copies), tuple(edges)), []).append(list(pol))
        return real_cone(copies, edges, f_node, None if kind != "pol" else pol, *rest)

    monkeypatch.setattr(agree.rewrite, "_factoring_check", factoring)
    monkeypatch.setattr(fpbc_reference, "_check_cone", cone)
    for seed in range(5):
        l, m = _Gen(random.Random(seed), (3, 3), instance).fpbc_pair()
        fp = fpbc(l, m, instance)
        assert fpbc_verify(l, m, fp.n, fp.a, instance, size_bound=(3, 3)).ok
        assert fpbc_reference.fpbc_verify(l, m, fp.n, fp.a, instance, size_bound=(3, 3)).ok
        for competitor, labellings in checked.items():
            assert labellings == listed[competitor]
        orbits = {_orbit_key(*competitor) for competitor in checked}
        assert len(orbits) == len(checked)
        assert orbits == {_orbit_key(*competitor) for competitor in listed}
        checked.clear()
        listed.clear()


def test_below_lists_the_labels_under_a_label():
    gr, typed, pol = (default_instance(kind) for kind in ("gr", "typed", "pol"))
    assert list(gr.below(None)) == [None]
    assert list(typed.below("tn")) == ["tn"]
    caps = [frozenset(), frozenset("-"), frozenset("+"), frozenset("+-")]
    assert list(pol.below(frozenset("+-"))) == caps
    assert list(pol.below(frozenset("+"))) == [caps[0], caps[2]]
    assert list(pol.below(frozenset())) == [caps[0]]
