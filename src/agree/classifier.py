"""Partial-map classifiers, and the constants they are built from.

``t_object`` adds to an object a "star" part that can absorb everything a
partial map is undefined on: one star node per maximal label (one per type
for typed graphs, a single one otherwise) and one star edge for every edge
the instance allows between the enlarged node set, and returns the pair
``(total, unit)`` of the enlarged object and the inclusion of the object
into it; the star items are the enlargement's items that are not the
object's.  ``phi`` turns a partial map, given as a span of an admissible
mono and an arrow, into the unique total arrow into the enlarged target
that restricts back to it.

Star item ids are normative: node ``*`` (typed: ``*:<type>``), edge
``*(<src>,<tgt>)`` (typed: ``*(<src>,<tgt>):<type>``).  The final object is
the star part on its own, with ``1`` in place of ``*``.
"""

from __future__ import annotations

from .core import (
    CategoryInstance,
    Graph,
    Morphism,
    _Record,
    compose,
    derived,
    identity,
    require_object,
    validate_morphism,
)
from .errors import InvariantError, PreconditionError, StructuralError

__all__ = [
    "ClassifiedObject",
    "Characteristic",
    "final_object",
    "initial_object",
    "bang",
    "zero",
    "t_object",
    "t_morphism",
    "phi",
    "bar",
    "characteristic",
]


def _edge_id(mark: str, n: str, p: str, label=None) -> str:
    return f"{mark}({n},{p})" if label is None else f"{mark}({n},{p}):{label}"


def _star_nodes(instance: CategoryInstance, mark: str) -> dict:
    return {mark + suffix: label for suffix, label in instance.stars.items()}


def _allowed_edges(instance: CategoryInstance, node_labels: dict, mark: str) -> dict:
    """Every edge the instance allows between the labelled nodes, as
    ``{id: (src, tgt, label)}`` with ids ``<mark>(src,tgt)[:label]``."""
    by_label = {}
    for n in sorted(node_labels):
        by_label.setdefault(node_labels[n], []).append(n)
    between = instance.edge_labels_between
    return {
        _edge_id(mark, n, p, label): (n, p, label)
        for a, sources in by_label.items() for b, targets in by_label.items()
        for label in between(a, b) for n in sources for p in targets
    }


def _absorb(instance: CategoryInstance, obj, mark: str, nodemap: dict, edgemap: dict):
    """Extend a partial map out of ``obj``: every unmapped node goes to the
    star above its label, every unmapped edge to the star edge between the
    images of its ends (star ids start with ``mark``)."""
    labels = obj.node_labels
    if labels is None:
        nodes = dict.fromkeys(obj.nodes, mark + instance.star(None))
    else:
        star = {label: mark + instance.star(label) for label in set(labels.values())}
        nodes = {x: star[label] for x, label in labels.items()}
    nodes.update(nodemap)
    src, tgt = obj.src, obj.tgt
    edge_labels = obj.edge_labels
    # Each distinct star edge id is built once, and looked up by its ends
    # (and label) for every further edge absorbed into it.
    star_edges = {}
    if edge_labels is None:
        edges = {e: edgemap[e] if e in edgemap
                 else star_edges.get(key := (nodes[src[e]], nodes[tgt[e]]))
                 or star_edges.setdefault(key, _edge_id(mark, *key))
                 for e in src}
    else:
        edges = {e: edgemap[e] if e in edgemap
                 else star_edges.get(key := (nodes[src[e]], nodes[tgt[e]], edge_labels[e]))
                 or star_edges.setdefault(key, _edge_id(mark, *key))
                 for e in src}
    return nodes, edges


# -- constants ----------------------------------------------------------------

def final_object(instance: CategoryInstance):
    """One node per maximal label and every allowed edge between them."""
    nodes = _star_nodes(instance, "1")
    ends = _allowed_edges(instance, nodes, "1")
    empty = instance.empty  # its label columns are the setting's
    return Graph(frozenset(nodes), {e: n for e, (n, _, _) in ends.items()},
                 {e: p for e, (_, p, _) in ends.items()},
                 None if empty.node_labels is None else nodes,
                 None if empty.edge_labels is None else {e: label for e, (_, _, label) in ends.items()},
                 instance.typegraph)


def initial_object(instance: CategoryInstance):
    return instance.empty


def bang(x, instance: CategoryInstance) -> Morphism:
    """The unique arrow into the final object."""
    require_object(x, instance)
    return _into(final_object(instance), x, instance)


def _into(one, x, instance: CategoryInstance) -> Morphism:
    return Morphism(x, one, *_absorb(instance, x, "1", {}, {}))


def zero(x, instance: CategoryInstance) -> Morphism:
    """The unique arrow out of the initial object."""
    require_object(x, instance)
    return Morphism(initial_object(instance), x, {}, {})


# -- enlargement ----------------------------------------------------------------

class ClassifiedObject(_Record):
    """``(total, unit)``: an object's enlargement and the unit, the
    inclusion of the object into it."""

    _fields = __slots__ = ("total", "unit")

    def __init__(self, total, unit: Morphism):
        self._fill(total, unit)


def t_object(y, instance: CategoryInstance) -> ClassifiedObject:
    """Enlarge ``y`` with its star part; the unit is the evident inclusion.

    The enlargement is built on the first call and kept on ``y``; later
    calls check that ``y`` belongs to ``instance`` and return an equal
    value around the kept total object.
    """
    require_object(y, instance)
    # Belonging pins the setting, so the enlargement is a fact about ``y`` alone.
    total, nodemap, edgemap = derived(y, "_enlargement", _enlarge, y, instance)
    return ClassifiedObject(total, Morphism(y, total, nodemap, edgemap))


def _refuse_reserved(kind: str, clash):
    if clash:
        ids = ", ".join(map(repr, sorted(clash)))
        raise StructuralError(f"base graph already uses reserved star {kind} ids: {ids}")


def _enlarge(y, instance: CategoryInstance) -> tuple:
    """Everything of ``y``'s :class:`ClassifiedObject` that does not refer to
    ``y``: the total object and the unit's two maps.  Kept on ``y``, it
    makes no reference cycle, so ``y`` is freed as soon as it is dropped."""
    stars = _star_nodes(instance, "*")
    _refuse_reserved("node", stars.keys() & y.nodes)
    nodes = y.nodes.union(stars)
    own = y.node_labels or {}
    # In node order, the order of an unlabelled graph's maps.
    node_labels = {n: stars[n] if n in stars else own.get(n) for n in nodes}
    ends = _allowed_edges(instance, node_labels, "*")
    _refuse_reserved("edge", ends.keys() & y.src.keys())

    src = dict(y.src)
    tgt = dict(y.tgt)
    for eid, (n, p, _) in ends.items():
        src[eid] = n
        tgt[eid] = p
    edge_labels = None
    if y.edge_labels is not None:
        edge_labels = dict(y.edge_labels)
        edge_labels.update({eid: label for eid, (_, _, label) in ends.items()})
    total = Graph(nodes, src, tgt, None if y.node_labels is None else node_labels, edge_labels, instance.typegraph)
    # The unit is the identity inclusion, an admissible mono by construction.
    return total, {n: n for n in y.nodes}, {e: e for e in y.src}


def t_morphism(f: Morphism, instance: CategoryInstance) -> Morphism:
    """Functorial action on arrows, ``T(f) = phi(unit, f)``: originals map
    by ``f``, stars to stars."""
    return phi(t_object(f.source, instance).unit, f, instance)


def phi(m: Morphism, f: Morphism, instance: CategoryInstance) -> Morphism:
    """The unique total arrow classifying the partial map ``(m, f)``.

    ``m: X >-> Z`` must be an admissible mono and ``f: X -> Y`` must share
    its source.  Items of ``Z`` hit by ``m`` map through ``f``; everything
    else is absorbed by the star part of the enlarged ``Y``.  The arrow is
    total and homomorphic by construction, so only the arguments are
    checked.
    """
    if m.source != f.source:
        raise PreconditionError("phi needs a span: m and f must share their source")
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("phi requires an admissible mono as first leg")
    rep = validate_morphism(f, instance)
    if not rep.valid:
        raise PreconditionError(f"phi requires a valid second leg: {rep.problems}")

    cy = t_object(f.target, instance)
    nodemap, edgemap = _absorb(instance, m.target, "*",
                               {z: f.nodemap[x] for x, z in m.nodemap.items()},
                               {z: f.edgemap[x] for x, z in m.edgemap.items()})
    return Morphism(m.target, cy.total, nodemap, edgemap)


def bar(m: Morphism, instance: CategoryInstance) -> Morphism:
    """Classify the subobject ``m`` itself: ``phi(m, id)``.

    The arrow is built on the first call and kept on ``m``; later calls
    check that ``m``'s ends belong to ``instance`` and return the kept
    arrow.
    """
    require_object(m.source, instance)
    require_object(m.target, instance)
    # Belonging pins the setting, so the classifying arrow is a fact about ``m`` alone.
    return derived(m, "_bar", _classify, m, instance)


def _classify(m: Morphism, instance: CategoryInstance) -> Morphism:
    return phi(m, identity(m.source), instance)


class Characteristic(_Record):
    """The characteristic arrow ``chi: G -> T(1)`` of a mono, with the
    points ``true_pt`` and ``false_pt``, both ``1 -> T(1)``."""

    _fields = __slots__ = ("chi", "true_pt", "false_pt")

    def __init__(self, chi: Morphism, true_pt: Morphism, false_pt: Morphism):
        self._fill(chi, true_pt, false_pt)


def _points(instance: CategoryInstance) -> tuple:
    """The final object and the ``true`` and ``false`` points of T(1)."""
    one = final_object(instance)
    c_zero = t_object(initial_object(instance), instance)
    b = _into(one, c_zero.total, instance)
    if not validate_morphism(b, instance).is_iso:
        raise InvariantError("the enlarged initial object must be final")
    b_inv = Morphism(one, c_zero.total,
                     {v: k for k, v in b.nodemap.items()},
                     {v: k for k, v in b.edgemap.items()})
    false_pt = compose(t_morphism(zero(one, instance), instance), b_inv)
    return one, t_object(one, instance).unit, false_pt


def characteristic(m: Morphism, instance: CategoryInstance) -> Characteristic:
    """Characteristic arrow of an admissible mono, with the two points of T(1).

    ``true`` is the unit at the final object; ``false`` routes through the
    enlargement of the initial object, which is itself final.  Both points
    depend only on the setting: they are built once per instance and kept
    on it.
    """
    one, true_pt, false_pt = derived(instance, "_classifier_points", _points, instance)
    return Characteristic(phi(m, _into(one, m.source, instance), instance), true_pt, false_pt)
