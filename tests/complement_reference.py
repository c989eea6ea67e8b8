"""The strict complement as the paper defines it: the pullback of the
characteristic arrow of an admissible mono against the ``false`` point of
T(1).

The engine computes a strict complement directly, by set passes over the
host.  ``conftest.py`` checks every call the suite makes against this
construction, built from the public ``characteristic`` and ``pullback``,
and checks that every square ``complement_of_square`` restricts to is a
pullback, by the canonical construction in ``square_reference.py``.
``test_complement_reference.py`` checks that broken complements and a
broken restriction fail it.
"""

from agree import CategoryInstance, Morphism, characteristic, pullback
from square_reference import is_pullback_square


def complement(m: Morphism, instance: CategoryInstance):
    """The pullback of ``characteristic(m).chi`` against ``false``: its
    apex, with apex items named ``(x,y)``, and its projection into the
    host, which renames ``(x,y)`` to ``x``."""
    ch = characteristic(m, instance)
    pb = pullback(ch.chi, ch.false_pt, instance)
    return pb.apex, pb.p1


def _renamed(labels, rename):
    return None if labels is None else {rename[x]: label for x, label in labels.items()}


def assert_same_complement(got: tuple, m: Morphism, instance: CategoryInstance):
    """Raise ``AssertionError`` (also under ``python -O``) unless the
    engine's ``(complement, inclusion)`` of ``m`` is the pullback against
    ``false`` under the renaming ``(x,y)`` -> ``x``: the same nodes, edges,
    ends and labels, included into the host by identities."""
    comp, incl = got
    apex, p1 = complement(m, instance)
    nodes, edges = p1.nodemap, p1.edgemap
    expected = {
        "nodes": set(nodes.values()),
        "edges": set(edges.values()),
        "src": {edges[e]: nodes[x] for e, x in apex.src.items()},
        "tgt": {edges[e]: nodes[x] for e, x in apex.tgt.items()},
        "node labels": _renamed(apex.node_labels, nodes),
        "edge labels": _renamed(apex.edge_labels, edges),
        "type graph": apex.typegraph,
        "inclusion": (m.target, {x: x for x in nodes.values()}, {e: e for e in edges.values()}),
    }
    actual = {
        "nodes": set(comp.nodes),
        "edges": set(comp.src),
        "src": comp.src,
        "tgt": comp.tgt,
        "node labels": comp.node_labels,
        "edge labels": comp.edge_labels,
        "type graph": comp.typegraph,
        "inclusion": (incl.target, incl.nodemap, incl.edgemap) if incl.source == comp else None,
    }
    for part, value in expected.items():
        if actual[part] != value:
            raise AssertionError(f"the strict complement's {part} differ from the pullback "
                                 f"against false: {actual[part]!r} != {value!r}")


def checked(compute):
    """``compute``, a ``(m, instance) -> (complement, inclusion)``, with
    every answer checked against the pullback against ``false``."""

    def checked_compute(m, instance):
        got = compute(m, instance)
        assert_same_complement(got, m, instance)
        return got

    return checked_compute


def _inclusion(sub, g) -> Morphism:
    return Morphism(sub, g, {x: x for x in sub.nodes}, {e: e for e in sub.src})


def assert_restricted_pullback(out: Morphism, n: Morphism, m: Morphism, g: Morphism,
                               instance: CategoryInstance):
    """Raise ``AssertionError`` unless ``out``, the restriction of ``g``
    to the complements of ``n`` and ``m``, makes a pullback square with
    the two inclusions and ``g``."""
    if not is_pullback_square(out, _inclusion(out.source, n.target), _inclusion(out.target, m.target),
                              g, instance):
        raise AssertionError("the square restricted to the strict complements is not a pullback")


def checked_restriction(restrict):
    """``restrict``, a ``complement_of_square``, with every answer checked
    to close a pullback square."""

    def checked_restrict(n, l, m, g, instance):
        out = restrict(n, l, m, g, instance)
        assert_restricted_pullback(out, n, m, g, instance)
        return out

    return checked_restrict
