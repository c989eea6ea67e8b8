"""Algebraic graph rewriting with controlled embedding.

Finite graphs, typed graphs and polarized graphs; partial-map classifiers;
rewrite steps that let a rule say which context edges preserved or cloned
items keep; and an executable suite of the structural laws the engine
relies on.
"""

from .core import (
    GR,
    GRPOL,
    CategoryInstance,
    Graph,
    Morphism,
    MorphismReport,
    PolarizedGraph,
    TypedGraph,
    compose,
    identity,
    pol_forget,
    pol_induce,
    pol_minimal,
    set_category,
    typed_over,
    validate_morphism,
)
from .catops import (
    Pullback,
    Pushout,
    enumerate_monos,
    enumerate_morphisms,
    is_pullback_square,
    iso_search,
    pullback,
    pullback_mediator,
    pushout_along_mono,
)
from .classifier import (
    Characteristic,
    ClassifiedObject,
    bang,
    bar,
    characteristic,
    final_object,
    initial_object,
    phi,
    t_morphism,
    t_object,
    zero,
)
from .rewrite import (
    Fpbc,
    FpbcReport,
    RewriteTrace,
    Rule,
    agree_rule,
    agree_step,
    complement_of_square,
    enumerate_matches,
    fpbc,
    fpbc_verify,
    is_local_rule,
    is_local_step,
    psqpo_rule,
    psqpo_step,
    sqpo_rule,
    strict_complement,
)
from .laws import DEFAULT_TYPEGRAPH, LAW_IDS, LawReport, default_instance, generate, run_law
from .errors import (
    DocumentError,
    GraphError,
    InvariantError,
    PreconditionError,
    RuleError,
    StructuralError,
    UnknownLawError,
)

from types import ModuleType as _ModuleType

# The names imported above; the submodules they come from are not exported.
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
