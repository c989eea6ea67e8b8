"""The enlargement functor, its unit, and classifying arrows."""

import random

import pytest

from agree import (
    GR,
    GRPOL,
    Graph,
    Morphism,
    PolarizedGraph,
    PreconditionError,
    StructuralError,
    TypedGraph,
    bang,
    bar,
    characteristic,
    compose,
    default_instance,
    final_object,
    generate,
    identity,
    initial_object,
    is_pullback_square,
    iso_search,
    phi,
    set_category,
    t_morphism,
    t_object,
    typed_over,
    validate_morphism,
)


def _typed(inst, ids, edges=None, node_types=None, edge_types=None):
    g = Graph.build(ids, edges or {})
    return TypedGraph(g, inst.typegraph,
                      Morphism(g, inst.typegraph, node_types or {}, edge_types or {}))


class TestTObject:
    def test_star_edge_count_formula(self):
        y = Graph.build(["a", "b"], {"e": ("a", "b")})
        c = t_object(y, GR)
        total = c.total
        assert len(total.nodes) == 3
        assert len(total.src) == 1 + (2 + 1) ** 2
        assert total.nodes - y.nodes == frozenset(["*"])

    def test_enlarged_initial_is_final(self):
        c = t_object(initial_object(GR), GR)
        total = c.total
        assert len(total.nodes) == 1 and len(total.src) == 1
        assert iso_search(c.total, final_object(GR), GR) is not None

    def test_polarized_star_edges_respect_capabilities(self):
        y = PolarizedGraph(Graph.build(["a"]), frozenset(["a"]), frozenset())
        c = t_object(y, GRPOL)
        total = c.total
        assert total.nodes == frozenset(["a", "*"])
        assert set(total.src) == {"*(a,*)", "*(*,*)"}
        assert c.total.node_labels == {"a": frozenset(["+"]), "*": frozenset(["+", "-"])}

    def test_typed_adds_stars_even_for_present_types(self):
        inst = typed_over(Graph.build(["t"], {"loop": ("t", "t")}))
        y = _typed(inst, ["a"], node_types={"a": "t"})
        c = t_object(y, inst)
        total = c.total
        assert total.nodes == frozenset(["a", "*:t"])
        # star edges between every pair of the enlarged node set
        assert len(total.src) == 4

    def test_typed_initial_enlargement_matches_base(self):
        inst = typed_over(Graph.build(["t", "u"], {"e": ("t", "u")}))
        c = t_object(initial_object(inst), inst)
        assert iso_search(c.total, final_object(inst), inst) is not None

    def test_reserved_id_collision_detected(self):
        with pytest.raises(StructuralError):
            t_object(Graph.build(["*"]), GR)

    @pytest.mark.parametrize("kind", ["gr", "typed", "pol"])
    def test_enlarged_carrier_is_frozen(self, kind):
        inst = default_instance(kind)
        y = generate("graph", 3, (2, 2), inst)
        nodes = t_object(y, inst).total.nodes
        assert type(nodes) is frozenset
        assert nodes == y.nodes | {"*" + s for s in inst.stars}

    def test_unit_is_admissible_mono(self):
        for seed in range(10):
            y = generate("graph", seed, (4, 4))
            rep = validate_morphism(t_object(y, GR).unit, GR)
            assert rep.is_mono_in_M


class TestTMorphism:
    def test_identity_functoriality(self):
        y = Graph.build(["a", "b"], {"e": ("a", "b")})
        assert t_morphism(identity(y), GR) == identity(t_object(y, GR).total)

    def test_singleton_star_edge_images(self):
        x, y = Graph.build(["a"]), Graph.build(["b"])
        f = Morphism(x, y, {"a": "b"}, {})
        tf = t_morphism(f, GR)
        assert tf.edgemap == {
            "*(a,*)": "*(b,*)",
            "*(*,a)": "*(*,b)",
            "*(*,*)": "*(*,*)",
            "*(a,a)": "*(b,b)",
        }

    def test_composition_functoriality(self):
        for seed in range(20):
            f = generate("morphism", seed, (3, 3))
            g = _extend_then_embed(f.target)
            lhs = t_morphism(compose(g, f), GR)
            rhs = compose(t_morphism(g, GR), t_morphism(f, GR))
            assert lhs == rhs

    def test_naturality_square_is_pullback(self):
        for seed in range(20):
            f = generate("morphism", seed, (3, 3))
            cx = t_object(f.source, GR)
            cy = t_object(f.target, GR)
            assert is_pullback_square(f, cx.unit, cy.unit, t_morphism(f, GR), GR)

    def test_preserves_admissible_monos(self):
        for seed in range(20):
            m = generate("mono", seed, (3, 3))
            assert validate_morphism(t_morphism(m, GR), GR).is_mono_in_M


def _extend_then_embed(y):
    g = y
    bigger = Graph(g.nodes | {"pad"}, dict(g.src), dict(g.tgt))
    return Morphism(y, bigger, {x: x for x in g.nodes}, {e: e for e in g.src})


class TestPhi:
    def test_total_map_case_is_unit_after_f(self):
        for seed in range(10):
            f = generate("morphism", seed, (3, 3))
            cy = t_object(f.target, GR)
            assert phi(identity(f.source), f, GR) == compose(cy.unit, f)

    def test_bar_sends_unmatched_to_stars(self):
        z = Graph.build(["a", "b"], {"e": ("a", "b")})
        x = Graph.build(["p"])
        m = Morphism(x, z, {"p": "a"}, {})
        mb = bar(m, GR)
        assert mb.nodemap == {"a": "p", "b": "*"}
        assert mb.edgemap == {"e": "*(p,*)"}

    def test_worked_example(self):
        z = Graph.build(["a", "b"], {"e": ("a", "b")})
        x = Graph.build(["a"])
        y = Graph.build(["c"])
        m = Morphism(x, z, {"a": "a"}, {})
        f = Morphism(x, y, {"a": "c"}, {})
        ph = phi(m, f, GR)
        assert ph.nodemap == {"a": "c", "b": "*"}
        assert ph.edgemap == {"e": "*(c,*)"}
        assert is_pullback_square(f, m, t_object(y, GR).unit, ph, GR)

    def test_classifier_square_is_pullback(self):
        for seed in range(30):
            m = generate("mono", seed, (3, 3))
            f = _map_from_source(m, seed)
            assert is_pullback_square(f, m, t_object(f.target, GR).unit, phi(m, f, GR), GR)

    def test_non_mono_rejected(self):
        two = Graph.build(["a", "b"])
        one = Graph.build(["c"])
        squash = Morphism(two, one, {"a": "c", "b": "c"}, {})
        with pytest.raises(PreconditionError):
            phi(squash, identity(two), GR)

    def test_decomposition_is_exact(self):
        # the functor applied after the subobject classification equals phi
        for seed in range(30):
            m = generate("mono", seed, (3, 3))
            f = _map_from_source(m, seed + 99)
            lhs = compose(t_morphism(f, GR), bar(m, GR))
            assert lhs == phi(m, f, GR)


def _map_from_source(m, seed):
    import random
    from agree.laws import _Gen

    gen = _Gen(random.Random(f"mapfrom/{seed}"), (3, 3), GR)
    return gen._map_from(m.source, f"y{seed}")


class TestCharacteristic:
    def test_identity_factors_through_true(self):
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        ch = characteristic(identity(g), GR)
        assert ch.chi == compose(ch.true_pt, bang(g, GR))

    def test_empty_mono_factors_through_false(self):
        g = Graph.build(["a", "b"], {"e": ("a", "b")})
        empty = initial_object(GR)
        ch = characteristic(Morphism(empty, g, {}, {}), GR)
        assert ch.chi == compose(ch.false_pt, bang(g, GR))

    def test_true_differs_from_false_in_all_instances(self):
        for inst in (GR, set_category(), GRPOL):
            g = final_object(inst)
            ch = characteristic(identity(g), inst)
            assert ch.true_pt != ch.false_pt
            true_img = set(ch.true_pt.nodemap.values())
            false_img = set(ch.false_pt.nodemap.values())
            assert not (true_img & false_img)


# -- shared star edge ids ----------------------------------------------------------

def _reference_absorb(instance, obj, mark, nodemap, edgemap):
    """``classifier._absorb`` as it was before it shared star edge ids: one
    formatted string per absorbed edge."""
    g = obj
    labels = obj.node_labels
    if labels is None:
        nodes = dict.fromkeys(g.nodes, mark + instance.star(None))
    else:
        star = {label: mark + instance.star(label) for label in set(labels.values())}
        nodes = {x: star[label] for x, label in labels.items()}
    nodes.update(nodemap)
    src, tgt, edge_labels = g.src, g.tgt, obj.edge_labels
    if edge_labels is None:
        edges = {e: edgemap[e] if e in edgemap else f"{mark}({nodes[src[e]]},{nodes[tgt[e]]})" for e in src}
    else:
        edges = {e: edgemap[e] if e in edgemap else f"{mark}({nodes[src[e]]},{nodes[tgt[e]]}):{edge_labels[e]}"
                 for e in src}
    return nodes, edges


def _large_host(inst, seed, n=2000, m=6000):
    """A seeded host of the size of the large-host benchmark's: n nodes and
    3n edges, typed round-robin over the type graph where ``inst`` is typed."""
    rng = random.Random(f"absorb/{seed}")
    nodes = [f"n{i:04d}" for i in range(n)]
    if inst.typegraph is None:
        return Graph.build(nodes, {f"e{i:04d}": (rng.choice(nodes), rng.choice(nodes)) for i in range(m)})
    tg = inst.typegraph
    types = sorted(tg.nodes)
    node_types = {x: types[i % len(types)] for i, x in enumerate(nodes)}
    by_type = {t: [x for x in nodes if node_types[x] == t] for t in types}
    etypes = sorted(tg.src)
    ends, edge_types = {}, {}
    for i in range(m):
        et = edge_types[f"e{i:04d}"] = rng.choice(etypes)
        ends[f"e{i:04d}"] = (rng.choice(by_type[tg.src[et]]), rng.choice(by_type[tg.tgt[et]]))
    g = Graph.build(nodes, ends)
    return TypedGraph(g, tg, Morphism(g, tg, node_types, edge_types))


def _small_mono(host):
    """The inclusion of the ends of the first host edge, six more host
    nodes, and the host edges among them."""
    g = host
    kept = sorted({*g.ends(min(g.src)), *sorted(g.nodes)[:6]})
    edges = {e: g.ends(e) for e in sorted(g.src) if set(g.ends(e)) <= set(kept)}
    sub = Graph.build(kept, edges)
    if host.typegraph is not None:
        sub = TypedGraph(sub, host.typegraph, Morphism(sub, host.typegraph,
                                                       {x: host.node_labels[x] for x in kept},
                                                       {e: host.edge_labels[e] for e in edges}))
    return Morphism(sub, host, {x: x for x in kept}, {e: e for e in edges})


@pytest.mark.parametrize("kind", ["gr", "typed"])
def test_star_edge_ids_are_shared(kind):
    """On a large host, ``bar`` and ``bang`` give the maps the per-edge
    formatting gave, item for item and in order, and hold one string object
    per distinct star edge id."""
    inst = default_instance(kind)
    host = _large_host(inst, 0)
    m = _small_mono(host)
    absorbed = [
        (bar(m, inst), _reference_absorb(inst, host, "*", {z: x for x, z in m.nodemap.items()},
                                         {z: x for x, z in m.edgemap.items()})),
        (bang(host, inst), _reference_absorb(inst, host, "1", {}, {})),
    ]
    for arrow, (nodes, edges) in absorbed:
        assert list(arrow.nodemap.items()) == list(nodes.items())
        assert list(arrow.edgemap.items()) == list(edges.items())
        stars = [v for v in arrow.edgemap.values() if v.startswith(("*", "1"))]
        assert len(stars) > len(set(stars)) >= 1
        assert len(set(map(id, stars))) == len(set(stars))
