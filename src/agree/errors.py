"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for everything raised deliberately by this package."""


class StructuralError(GraphError):
    """A value is internally malformed: dangling ids, duplicate ids, or an
    id collision with a reserved construction scheme.  Distinct from a map
    that is well-formed but fails to be a homomorphism."""


class PreconditionError(GraphError):
    """An operation was called on arguments that violate its contract,
    e.g. a pullback of arrows with different targets, or a pushout along a
    map that is not an admissible mono."""


class InvariantError(GraphError):
    """A construction broke a fact it guarantees, e.g. a pullback whose
    projection is not a valid morphism.  Raised by an explicit check, so
    it is raised the same way under ``python -O``."""


class RuleError(GraphError):
    """A rewrite rule is malformed for its declared mode."""


class UnknownLawError(GraphError):
    """``run_law`` was given an id that names no law."""


class DocumentError(GraphError):
    """A JSON document failed validation.

    ``errors`` is a list of ``(path, message)`` pairs where ``path`` is a
    JSON-pointer-like location inside the offending document.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.errors))
