"""The public refusals that no other test reaches: each call below breaks
one precondition of a public function, and the table pins the class and
the text of the error it must raise."""

import pytest

from agree import (
    GR,
    CategoryInstance,
    Graph,
    Morphism,
    PolarizedGraph,
    PreconditionError,
    Rule,
    RuleError,
    StructuralError,
    agree_step,
    complement_of_square,
    default_instance,
    fpbc,
    fpbc_verify,
    identity,
    is_pullback_square,
    phi,
    pol_forget,
    pol_induce,
    pol_minimal,
    psqpo_step,
    pullback,
    pullback_mediator,
    strict_complement,
)

EMPTY = Graph.build([])
POINT = Graph.build(["x"])
TWO = Graph.build(["k0", "k1"])
EDGE = Graph.build(["a", "b"], {"e": ("a", "b")})

FOLD = Morphism(TWO, POINT, {"k0": "x", "k1": "x"}, {})   # not a mono
TO_A = Morphism(POINT, EDGE, {"x": "a"}, {})
TO_B = Morphism(POINT, EDGE, {"x": "b"}, {})
# Swaps the ends of e but keeps e: not a homomorphism.
SWAP = Morphism(EDGE, EDGE, {"a": "b", "b": "a"}, {"e": "e"})
SWAP_PROBLEMS = """("edge 'e' is not mapped homomorphically",)"""

REFUSALS = {
    "agree_step: an embedding built directly that is not a mono": (
        lambda: agree_step(Rule(identity(TWO), identity(TWO), FOLD, "AGREE"), identity(TWO), GR),
        RuleError, "rule embedding must be an admissible mono in this instance"),
    "psqpo_step: no polarity": (
        lambda: psqpo_step(Rule(identity(POINT), identity(POINT), identity(POINT), "PSQPO"), identity(POINT)),
        RuleError, "polarized rules must carry a polarity on the interface"),
    "fpbc: a match that is not a mono": (
        lambda: fpbc(identity(TWO), FOLD, GR),
        PreconditionError, "final pullback complements need an admissible mono match"),
    "fpbc: arrows that do not compose": (
        lambda: fpbc(identity(TWO), TO_A, GR),
        PreconditionError, "arrows do not compose: l must end where m starts"),
    "fpbc_verify: a square that does not commute": (
        lambda: fpbc_verify(identity(POINT), TO_A, identity(POINT), TO_B, GR),
        PreconditionError, "candidate complement square does not commute"),
    "strict_complement: not a mono": (
        lambda: strict_complement(FOLD, GR),
        PreconditionError, "strict complements are taken of admissible monos"),
    "complement_of_square: not a pullback": (
        lambda: complement_of_square(Morphism(EMPTY, POINT, {}, {}), Morphism(EMPTY, POINT, {}, {}),
                                     identity(POINT), identity(POINT), GR),
        PreconditionError, "complement_of_square needs a pullback square"),
    "complement_of_square: a pullback over a match that is not a mono": (
        lambda: complement_of_square(FOLD, identity(TWO), FOLD, identity(POINT), GR),
        PreconditionError, "strict complements are taken of admissible monos"),
    "pullback_mediator: legs from two objects": (
        lambda: pullback_mediator(pullback(TO_A, TO_A, GR), identity(POINT), FOLD),
        PreconditionError, "cone legs must share their source"),
    "pullback_mediator: a leg outside the feet": (
        lambda: pullback_mediator(pullback(TO_A, TO_A, GR), identity(POINT), TO_A),
        PreconditionError, "cone legs must land in the pullback's feet"),
    "pullback_mediator: a cone that does not commute": (
        lambda: pullback_mediator(pullback(TO_A, TO_B, GR), identity(POINT), identity(POINT)),
        PreconditionError, "cone does not commute with the cospan"),
    "is_pullback_square: an invalid arrow": (
        lambda: is_pullback_square(identity(EDGE), identity(EDGE), SWAP, identity(EDGE), GR),
        PreconditionError, f"square contains an invalid morphism: {SWAP_PROBLEMS}"),
    "is_pullback_square: arrows that do not fit": (
        lambda: is_pullback_square(identity(POINT), identity(EDGE), identity(POINT), identity(EDGE), GR),
        PreconditionError, "square arrows do not fit together"),
    "phi: not a span": (
        lambda: phi(identity(POINT), identity(EDGE), GR),
        PreconditionError, "phi needs a span: m and f must share their source"),
    "phi: an invalid second leg": (
        lambda: phi(identity(EDGE), SWAP, GR),
        PreconditionError, f"phi requires a valid second leg: {SWAP_PROBLEMS}"),
    "PolarizedGraph: polarity outside the node set": (
        lambda: PolarizedGraph(POINT, {"z"}, ()),
        StructuralError, "polarity sets must be subsets of the node set"),
    "CategoryInstance: an unknown kind": (
        lambda: CategoryInstance("foo"),
        PreconditionError, "unknown category kind 'foo'"),
    "CategoryInstance: typed without a type graph": (
        lambda: CategoryInstance("typed"),
        PreconditionError, "typed instances need a type graph, others must not have one"),
    "CategoryInstance: plain with a type graph": (
        lambda: CategoryInstance("gr", POINT),
        PreconditionError, "typed instances need a type graph, others must not have one"),
    "pol_forget: a plain graph": (
        lambda: pol_forget(POINT),
        PreconditionError, "pol_forget expects a polarized graph or morphism"),
    "pol_induce: a polarized graph": (
        lambda: pol_induce(pol_induce(POINT)),
        PreconditionError, "pol_induce expects a plain graph or morphism"),
    "pol_minimal: a polarized graph": (
        lambda: pol_minimal(pol_induce(POINT)),
        PreconditionError, "pol_minimal expects a plain graph or morphism"),
    "default_instance: an unknown name": (
        lambda: default_instance("foo"),
        PreconditionError, "unknown category name 'foo'"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
