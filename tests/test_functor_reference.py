"""``t_morphism`` and ``fpbc`` against the constructions they replaced.

The engine computes ``T(f)`` as ``phi(unit, f)`` and a final pullback
complement as a step's first phase with the unit at ``K`` as embedding;
``functor_reference`` keeps the star-edge loop and the pullback against
``T(l)`` they were built with before.  Both must give equal arrows and
complements on random draws in every setting, and on the polarized first
phase of PSQPO steps.
"""

import random

import pytest

from agree import (
    GR,
    GRPOL,
    Morphism,
    PolarizedGraph,
    default_instance,
    fpbc,
    pol_forget,
    pol_induce,
    psqpo_step,
    t_morphism,
)
from agree.laws import _Gen

import functor_reference

KINDS = ("gr", "typed", "pol")


@pytest.mark.parametrize("kind", KINDS)
def test_t_morphism_equals_the_reference(kind):
    inst = default_instance(kind)
    gen = _Gen(random.Random(f"functor/{kind}"), (4, 5), inst)
    for _ in range(150):
        for f in (gen.morphism(), gen.mono()):
            assert t_morphism(f, inst) == functor_reference.t_morphism(f, inst)


@pytest.mark.parametrize("kind", KINDS)
def test_fpbc_equals_the_reference(kind):
    inst = default_instance(kind)
    gen = _Gen(random.Random(f"fpbc/{kind}"), (3, 3), inst)
    for _ in range(200):
        l, m = gen.fpbc_pair()
        assert fpbc(l, m, inst) == functor_reference.fpbc(l, m, inst)


def test_psqpo_first_phase_equals_the_reference():
    """A PSQPO step's first phase is ``fpbc`` over the polarized rule and
    match that ``psqpo_step`` builds; the trace holds its arrows with
    polarity dropped."""
    gen = _Gen(random.Random("functor/psqpo"), (3, 3), GR)
    for _ in range(60):
        rule = gen.psqpo_rule()
        m = gen.match_onto(rule.lhs)
        trace = psqpo_step(rule, m)
        khat = PolarizedGraph(rule.interface, rule.nplus, rule.nminus)
        lhat = Morphism(khat, pol_induce(rule.lhs), rule.l.nodemap, rule.l.edgemap)
        mhat = pol_induce(m)
        expected = functor_reference.fpbc(lhat, mhat, GRPOL)
        assert fpbc(lhat, mhat, GRPOL) == expected
        assert trace.l_prime == pol_forget(functor_reference.t_morphism(lhat, GRPOL))
        assert (trace.n, trace.g) == (pol_forget(expected.n), pol_forget(expected.a))
