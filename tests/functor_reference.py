"""The enlargement functor on arrows and the final pullback complement, as
the engine built them before both went through ``phi``: ``t_morphism``
with its own loop over the star edges, and ``fpbc`` pulling ``bar(m)``
back against it with a mediator of its own.

The engine now computes ``T(f)`` as ``phi(unit, f)`` and ``fpbc`` as a
step's first phase with the unit at ``K`` as embedding; these are the
constructions it must still agree with.  They raise ``AssertionError``
themselves, so their checks also run under ``python -O``.
"""

from agree import (
    Morphism,
    PreconditionError,
    bar,
    compose,
    pullback,
    pullback_mediator,
    t_object,
    validate_morphism,
)
from agree.classifier import _edge_id
from agree.rewrite import Fpbc


def t_morphism(f, instance):
    """Functorial action on arrows: originals map by ``f``, stars to stars."""
    rep = validate_morphism(f, instance)
    if not rep.valid:
        raise PreconditionError(f"t_morphism needs a valid morphism: {rep.problems}")
    cx = t_object(f.source, instance)
    cy = t_object(f.target, instance)

    # The star items are the enlargement's items that are not the base's.
    total = cx.total
    nodemap = dict(f.nodemap)
    nodemap.update({s: s for s in total.nodes - f.source.nodes})
    edgemap = dict(f.edgemap)
    for eid in total.src.keys() - f.source.src.keys():
        label = None if total.edge_labels is None else total.edge_labels[eid]
        edgemap[eid] = _edge_id("*", nodemap[total.src[eid]], nodemap[total.tgt[eid]], label)
    out = Morphism(cx.total, cy.total, nodemap, edgemap)
    if not validate_morphism(out, instance).valid:
        raise AssertionError("T(f) is not a valid morphism")
    return out


def fpbc(l, m, instance):
    """Final pullback complement of ``K -l-> L -m-> G``: the pullback of
    ``bar(m)`` against ``T(l)``, with the mediator of ``(m . l, unit)``."""
    if not validate_morphism(m, instance).is_mono_in_M:
        raise PreconditionError("final pullback complements need an admissible mono match")
    if l.target != m.source:
        raise PreconditionError("arrows do not compose: l must end where m starts")
    pb = pullback(bar(m, instance), t_morphism(l, instance), instance)
    unit_k = t_object(l.source, instance).unit
    n = pullback_mediator(pb, compose(m, l), unit_k)
    if not validate_morphism(n, instance).is_mono_in_M:
        raise AssertionError("the complement's embedding of K is not an admissible mono")
    return Fpbc(n, pb.p1)
