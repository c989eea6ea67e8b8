"""Limits, colimits, constants and the square decision procedures."""

import random

import pytest

from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    PolarizedGraph,
    PreconditionError,
    bang,
    compose,
    final_object,
    generate,
    identity,
    initial_object,
    is_pullback_square,
    iso_search,
    pullback,
    pullback_mediator,
    pushout_along_mono,
    set_category,
    validate_morphism,
    zero,
)
from agree.laws import _Gen, default_instance

from helpers import (
    naive_morphisms,
    pullback_is_universal,
    pushout_is_universal,
    small_cone_objects,
)


class TestPullback:
    def test_identity_cospan_gives_the_object_back(self):
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        pb = pullback(identity(x), identity(x), GR)
        assert iso_search(pb.apex, x, GR) is not None

    def test_single_overlap_example(self):
        # oracle: hand enumeration of commuting pairs over the cospan
        z = Graph.build(["a", "b"], {"e": ("a", "b")})
        y = Graph.build(["c"])
        g = Morphism(y, z, {"c": "b"}, {})
        pb = pullback(identity(z), g, GR)
        pairs = {(x, w) for x in z.nodes for w in y.nodes if x == g.nodemap[w]}
        assert pairs == {("b", "c")}
        apex = pb.apex
        assert len(apex.nodes) == 1 and not apex.src
        assert apex.nodes == frozenset(["(b,c)"])

    def test_mono_stability_on_random_instances(self):
        import random
        from agree.laws import _Gen

        checked = 0
        seed = 0
        while checked < 200:
            gen = _Gen(random.Random(f"stab/{seed}"), (4, 4), GR)
            seed += 1
            m = gen.mono()
            f = gen.arrow_into(m.target, prefix="f")
            pb = pullback(f, m, GR)
            assert validate_morphism(pb.p1, GR).is_mono_in_M
            checked += 1

    def test_mismatched_targets_rejected(self):
        a, b = Graph.build(["a"]), Graph.build(["b"])
        with pytest.raises(PreconditionError):
            pullback(identity(a), identity(b), GR)

    def test_universal_property_small_probes(self):
        for inst_name, inst in (("gr", GR), ("typed", set_category()), ("pol", GRPOL)):
            for seed in range(8):
                f = _arrow(inst, seed)
                g = _arrow(inst, seed + 50, target=f.target)
                pb = pullback(f, g, inst)
                assert pullback_is_universal(
                    f, g, pb.apex, pb.p1, pb.p2, inst, small_cone_objects(inst)
                ), (inst_name, seed)


def _arrow(inst, seed, target=None):
    from agree.laws import _Gen
    import random

    gen = _Gen(random.Random(f"probe/{seed}"), (3, 3), inst)
    if target is None:
        return gen.morphism()
    return gen.arrow_into(target, prefix=f"w{seed}")


class TestMediator:
    def test_projections_mediate_to_identity(self):
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        pb = pullback(identity(x), identity(x), GR)
        z = pullback_mediator(pb, pb.p1, pb.p2)
        assert validate_morphism(z, GR).is_iso
        assert z.nodemap == {n: n for n in pb.apex.nodes}

    def test_empty_cone(self):
        x = Graph.build(["a"])
        pb = pullback(identity(x), identity(x), GR)
        empty = Graph.build([])
        z = pullback_mediator(pb, Morphism(empty, x, {}, {}), Morphism(empty, x, {}, {}))
        assert z.nodemap == {} and z.edgemap == {}

    def test_non_commuting_cone_rejected(self):
        x = Graph.build(["a", "b"])
        pb = pullback(identity(x), identity(x), GR)
        v = Morphism(x, x, {"a": "a", "b": "b"}, {})
        w = Morphism(x, x, {"a": "b", "b": "a"}, {})
        with pytest.raises(PreconditionError):
            pullback_mediator(pb, v, w)


class TestPushout:
    def test_identity_right_leg_gives_context_back(self):
        d = Graph.build(["a", "b"], {"e": ("a", "b")})
        k = Graph.build(["x"])
        n = Morphism(k, d, {"x": "a"}, {})
        po = pushout_along_mono(n, identity(k), GR)
        assert iso_search(po.result, d, GR) is not None

    def test_worked_example_frozen(self):
        # K = {k}, D = {k, d, d->k}, R = {k1, k2}, r(k) = k1
        k = Graph.build(["k"])
        d = Graph.build(["k", "d"], {"ed": ("d", "k")})
        r_obj = Graph.build(["k1", "k2"])
        n = Morphism(k, d, {"k": "k"}, {})
        r = Morphism(k, r_obj, {"k": "k1"}, {})
        po = pushout_along_mono(n, r, GR)
        h = po.result
        assert h.nodes == frozenset(["D:d", "R:k1", "R:k2"])
        assert h.src == {"D:ed": "D:d"} and h.tgt == {"D:ed": "R:k1"}

    def test_deletion_shape(self):
        d = Graph.build(["a", "b"], {"e": ("a", "b")})
        empty = Graph.build([])
        n = Morphism(empty, d, {}, {})
        po = pushout_along_mono(n, identity(empty), GR)
        assert iso_search(po.result, d, GR) is not None

    def test_non_mono_rejected(self):
        k = Graph.build(["a", "b"])
        d = Graph.build(["c"])
        n = Morphism(k, d, {"a": "c", "b": "c"}, {})
        with pytest.raises(PreconditionError):
            pushout_along_mono(n, identity(k), GR)

    def test_polarized_pushout_not_provided(self):
        p = PolarizedGraph(Graph.build(["a"]), frozenset(), frozenset())
        with pytest.raises(PreconditionError):
            pushout_along_mono(identity(p), identity(p), GRPOL)

    def test_universal_property_bounded_oracle(self):
        import random
        from agree.laws import _Gen

        for inst in (GR, set_category()):
            checked = 0
            for seed in range(40):
                gen = _Gen(random.Random(f"po/{seed}"), (2, 1), inst)
                k = gen.object("k")
                rule_r = gen._map_from(k, "r")
                n = gen.match_onto(k, extra_nodes=1, extra_edges=1)
                po = pushout_along_mono(n, rule_r, inst)
                assert compose(po.h, n) == compose(po.p, rule_r)
                h_graph = po.result
                if len(h_graph.nodes) > 4 or len(h_graph.src) > 3:
                    continue  # keep the quotient family at desk scale
                checked += 1
                assert pushout_is_universal(n, rule_r, po.result, po.h, po.p, inst)
                if checked >= 8:
                    break
            assert checked >= 5


class TestConstants:
    def test_terminal_graph_via_uniqueness_of_bang(self):
        one = final_object(GR)
        assert len(one.nodes) == 1 and len(one.src) == 1
        for seed in range(20):
            x = generate("graph", seed, (4, 4))
            arrows = list(naive_morphisms(x, one, GR))
            assert len(arrows) == 1
            assert arrows[0] == bang(x, GR)

    def test_typed_terminal_over_node_only_base(self):
        inst = set_category()
        one = final_object(inst)
        assert len(one.nodes) == 1 and not one.src

    def test_bang_on_initial_is_admissible_mono(self):
        for inst in (GR, set_category(), GRPOL):
            assert validate_morphism(zero(final_object(inst), inst), inst).is_mono_in_M
            arrow = bang(initial_object(inst), inst)
            assert validate_morphism(arrow, inst).is_mono_in_M

    def test_zero_is_unique(self):
        x = generate("graph", 7, (3, 3))
        z = zero(x, GR)
        assert z.source == initial_object(GR)
        assert list(naive_morphisms(initial_object(GR), x, GR)) == [z]


class TestIsoSearch:
    def test_same_object(self):
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        iso = iso_search(x, x, GR)
        assert iso is not None and validate_morphism(iso, GR).is_iso

    def test_cardinality_mismatch(self):
        assert iso_search(Graph.build(["a", "b"]), Graph.build(["a"]), GR) is None

    def test_single_edge_relabel(self):
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        y = Graph.build(["c", "d"], {"f": ("c", "d")})
        iso = iso_search(x, y, GR)
        assert iso is not None
        assert iso.nodemap == {"a": "c", "b": "d"}

    def test_deterministic(self):
        x = Graph.build(["a", "b"])
        y = Graph.build(["c", "d"])
        assert iso_search(x, y, GR) == iso_search(x, y, GR)

    def test_polarity_blocks_iso(self):
        g = Graph.build(["a"])
        x = PolarizedGraph(g, frozenset(["a"]), frozenset())
        y = PolarizedGraph(g, frozenset(), frozenset(["a"]))
        assert iso_search(x, y, GRPOL) is None

    @pytest.mark.parametrize("category", ["gr", "typed", "pol"])
    def test_generated_results_validate_as_isos(self, category):
        inst = default_instance(category)
        found = 0
        for seed in range(40):
            rng = random.Random(f"iso/{seed}")
            gen = _Gen(rng, (4, 5), inst)
            x = gen.object("a")
            m = gen.mono()
            for y, must_find in ((_renamed_copy(x, inst, rng), True), (gen.object("b"), False),
                                 (m.source, False), (m.target, False)):
                iso = iso_search(x, y, inst)
                assert iso is not None or not must_find
                if iso is not None:
                    assert (iso.source, iso.target) == (x, y)
                    assert validate_morphism(iso, inst).is_iso
                    found += 1
        assert found > 40


def _renamed_copy(obj, inst, rng):
    """An isomorphic copy of ``obj`` whose ids are a shuffled renaming."""
    g = obj
    nodes = {n: f"c{i}" for i, n in enumerate(rng.sample(sorted(g.nodes), len(g.nodes)))}
    edges = {e: f"ce{i}" for i, e in enumerate(rng.sample(sorted(g.src), len(g.src)))}

    def renamed(labels, names):
        return None if labels is None else {names[k]: label for k, label in labels.items()}

    return Graph(frozenset(nodes.values()), {edges[e]: nodes[g.src[e]] for e in g.src},
                 {edges[e]: nodes[g.tgt[e]] for e in g.src},
                 renamed(obj.node_labels, nodes), renamed(obj.edge_labels, edges), inst.typegraph)


class TestPullbackSquares:
    def test_canonical_square_passes(self):
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        y = Graph.build(["c"])
        g = Morphism(y, x, {"c": "a"}, {})
        pb = pullback(identity(x), g, GR)
        assert is_pullback_square(pb.p1, pb.p2, identity(x), g, GR)

    def test_padded_apex_fails(self):
        # A second apex node over the same pair: the square commutes, but
        # the pairs repeat.
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        y = Graph.build(["c"])
        g = Morphism(y, x, {"c": "a"}, {})
        pb = pullback(identity(x), g, GR)
        apex = pb.apex
        padded = Graph(apex.nodes | {"pad"}, dict(apex.src), dict(apex.tgt))
        p1 = Morphism(padded, x, dict(pb.p1.nodemap, pad="a"), dict(pb.p1.edgemap))
        p2 = Morphism(padded, y, dict(pb.p2.nodemap, pad="c"), dict(pb.p2.edgemap))
        assert compose(identity(x), p1) == compose(g, p2)
        assert not is_pullback_square(p1, p2, identity(x), g, GR)

    def test_apex_missing_an_item_fails(self):
        x = Graph.build(["a", "b"], {"e": ("a", "b")})
        y = Graph.build(["c", "d"])
        g = Morphism(y, x, {"c": "a", "d": "b"}, {})
        pb = pullback(identity(x), g, GR)
        assert pb.apex.nodes == {"(a,c)", "(b,d)"}
        short = Graph.build(["(a,c)"])
        p1 = Morphism(short, x, {"(a,c)": "a"}, {})
        p2 = Morphism(short, y, {"(a,c)": "c"}, {})
        assert is_pullback_square(pb.p1, pb.p2, identity(x), g, GR)
        assert not is_pullback_square(p1, p2, identity(x), g, GR)

    def test_apex_label_below_the_meet_fails(self):
        # The canonical apex node carries both capabilities; an apex node
        # with only + still makes a commuting square of valid arrows.
        point = Graph.build(["a"])
        x = PolarizedGraph(point, frozenset({"a"}), frozenset({"a"}))
        y = PolarizedGraph(Graph.build(["c"]), frozenset({"c"}), frozenset({"c"}))
        g = Morphism(y, x, {"c": "a"}, {})
        pb = pullback(identity(x), g, GRPOL)
        assert pb.apex.node_labels == {"(a,c)": frozenset("+-")}
        weak = PolarizedGraph(pb.apex, frozenset({"(a,c)"}), frozenset())
        p1 = Morphism(weak, x, dict(pb.p1.nodemap), {})
        p2 = Morphism(weak, y, dict(pb.p2.nodemap), {})
        assert validate_morphism(p1, GRPOL).valid and validate_morphism(p2, GRPOL).valid
        assert is_pullback_square(pb.p1, pb.p2, identity(x), g, GRPOL)
        assert not is_pullback_square(p1, p2, identity(x), g, GRPOL)

    def test_non_commuting_square_rejected(self):
        x = Graph.build(["a", "b"])
        f = Morphism(x, x, {"a": "a", "b": "b"}, {})
        g = Morphism(x, x, {"a": "b", "b": "a"}, {})
        with pytest.raises(PreconditionError):
            is_pullback_square(f, f, f, g, GR)

    def test_composition_property(self):
        # pasting a pullback onto a pullback yields a pullback
        for seed in range(30):
            f = generate("morphism", seed, (4, 4))
            g = _arrow(GR, seed + 17, target=f.target)
            pb = pullback(f, g, GR)
            e = _arrow(GR, seed + 31, target=f.source)
            pb2 = pullback(e, pb.p1, GR)
            composed_leg = compose(pb.p2, pb2.p2)
            assert is_pullback_square(pb2.p1, composed_leg, compose(f, e), g, GR)

    def test_decomposition_property(self):
        for seed in range(30):
            f = generate("morphism", seed, (4, 4))
            g = _arrow(GR, seed + 17, target=f.target)
            e = _arrow(GR, seed + 31, target=f.source)
            right = pullback(f, g, GR)
            outer = pullback(compose(f, e), g, GR)
            z = pullback_mediator(right, compose(e, outer.p1), outer.p2)
            assert is_pullback_square(outer.p1, z, e, right.p1, GR)
