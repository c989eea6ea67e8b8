"""``core.validate_morphism`` as it was before its first call checked the map
entries inside the pass that computes the report: ``_structural_check``
walks the four maps, then ``_report`` walks them again.

Kept verbatim as a test-only oracle for ``test_validate.py``, with one
change: the report is kept under its own name, ``_reference_report``, so
the oracle and the engine never read each other's kept reports.
"""

from __future__ import annotations

from agree.core import (
    CategoryInstance,
    Morphism,
    MorphismReport,
    derived,
    require_object,
)
from agree.errors import StructuralError


def _structural_check(f: Morphism):
    sg, tg = f.source, f.target
    for x in f.nodemap:
        if x not in sg.nodes:
            raise StructuralError(f"nodemap mentions unknown source node {x!r}")
    for y in f.nodemap.values():
        if y not in tg.nodes:
            raise StructuralError(f"nodemap targets unknown node {y!r}")
    for e in f.edgemap:
        if e not in sg.src:
            raise StructuralError(f"edgemap mentions unknown source edge {e!r}")
    for d in f.edgemap.values():
        if d not in tg.src:
            raise StructuralError(f"edgemap targets unknown edge {d!r}")


def _label_order(f: Morphism, leq) -> tuple:
    """``(preserved, below)``: whether every label equals, resp. is ``leq``
    its image's label."""
    preserved = below = True
    if f.source.node_labels is None and f.source.edge_labels is None:
        return preserved, below
    for own, theirs, image in ((f.source.node_labels, f.target.node_labels, f.nodemap),
                               (f.source.edge_labels, f.target.edge_labels, f.edgemap)):
        if own is not None:
            images = {x: theirs[image[x]] for x in own}
            if images != own:
                preserved = False
                below = below and all(leq(label, images[x]) for x, label in own.items())
    return preserved, below


def validate_morphism(f: Morphism, instance: CategoryInstance) -> MorphismReport:
    """Check the morphism obligations of ``f`` in the given instance.

    Valid means total, homomorphic and label-monotone; an admissible mono
    is also injective and label-preserving, an iso bijective and
    label-preserving.  Dangling map entries raise :class:`StructuralError`;
    a well-formed map that fails an obligation yields ``valid=False`` with
    the reasons.  The ends and the map entries are checked on every call;
    the report is computed on the first and kept on ``f``.
    """
    require_object(f.source, instance)
    require_object(f.target, instance)
    _structural_check(f)
    # The ends pin the setting, so the report is a fact about ``f`` alone.
    return derived(f, "_reference_report", _report, f, instance.leq)


def _report(f: Morphism, leq) -> MorphismReport:
    sg, tg = f.source, f.target

    problems = []
    preserved = False
    if set(f.nodemap) != sg.nodes:
        problems.append("nodemap is not total on the source nodes")
    if set(f.edgemap) != set(sg.src):
        problems.append("edgemap is not total on the source edges")
    if not problems:
        for e, d in f.edgemap.items():
            if f.nodemap[sg.src[e]] != tg.src[d] or f.nodemap[sg.tgt[e]] != tg.tgt[d]:
                problems.append(f"edge {e!r} is not mapped homomorphically")
                break
        preserved, below = _label_order(f, leq)
        if not below:
            problems.append("labels are not preserved")

    valid = not problems
    mono = (valid and preserved and len(set(f.nodemap.values())) == len(f.nodemap)
            and len(set(f.edgemap.values())) == len(f.edgemap))
    iso = mono and len(tg.nodes) == len(sg.nodes) and len(tg.src) == len(sg.src)
    return MorphismReport(valid, mono, iso, tuple(problems))
