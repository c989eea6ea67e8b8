"""``is_pullback_square`` as it was before it counted fibres.

It decides a commuting square by building the canonical pullback of its
cospan and checking that the induced mediator is an isomorphism.  Kept
verbatim as a test-only oracle: ``conftest.py`` checks every
``is_pullback_square`` call in the suite against it, and
``test_squares.py`` checks drawn squares and their mutants.
"""

from agree import CategoryInstance, Morphism, PreconditionError, compose, validate_morphism
from agree.catops import pullback, pullback_mediator


def is_pullback_square(p: Morphism, q: Morphism, f: Morphism, g: Morphism,
                       instance: CategoryInstance) -> bool:
    """Whether the commuting square ``f . p = g . q`` is a pullback.

    Decided by comparison with the canonical pullback: the induced mediator
    from the apex must be an isomorphism.
    """
    for arrow in (p, q, f, g):
        rep = validate_morphism(arrow, instance)
        if not rep.valid:
            raise PreconditionError(f"square contains an invalid morphism: {rep.problems}")
    if p.source != q.source or p.target != f.source or q.target != g.source:
        raise PreconditionError("square arrows do not fit together")
    if compose(f, p) != compose(g, q):
        raise PreconditionError("square does not commute")
    pb = pullback(f, g, instance)
    z = pullback_mediator(pb, p, q)
    return validate_morphism(z, instance).is_iso


def _outcome(decide, *args):
    """``(answer, None)``, or ``(None, error)`` with what ``decide`` raised."""
    try:
        return decide(*args), None
    except Exception as err:  # noqa: BLE001 - the outcome is compared, not handled
        return None, err


def _same_error(a, b) -> bool:
    return type(a) is type(b) and str(a) == str(b)


def assert_same_answer(decide, *args):
    """Decide one square with ``decide`` and with the reference, raise
    ``AssertionError`` unless they agree (also under ``python -O``), and
    return (or raise) what ``decide`` gave.  Where the reference gives up
    because ``(x,y)`` names collide, ``decide`` must still answer."""
    got, error = _outcome(decide, *args)
    expected, expected_error = _outcome(is_pullback_square, *args)
    if expected_error is not None and "pair naming collided" in str(expected_error):
        same = error is None and isinstance(got, bool)
    elif expected_error is not None or error is not None:
        same = _same_error(error, expected_error)
    else:
        same = got is expected
    if not same:
        raise AssertionError(f"is_pullback_square gave {error or got!r}, "
                             f"the canonical pullback {expected_error or expected!r}")
    if error is not None:
        raise error
    return got
