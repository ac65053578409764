"""forestren: exact renormalization of branched integrals on decorated rooted forests."""

from .errors import (
    ConvergenceFailure,
    DomainError,
    ForestrenError,
    IndexOutOfRange,
    LocalityViolation,
    NonPositiveWeight,
    NotDivisible,
    NotProperlyDecorated,
    NumeratorTooLarge,
    ParseError,
    SingularGram,
    TruncationBelowDegree,
    VariableMismatch,
)
from .forest import (
    DecoratedForest,
    DecoratedTree,
    EMPTY_FOREST,
    canonical,
    check_properly_decorated,
    concat,
    decompose,
    degree,
    forest_shapes,
    from_shape,
    graft,
    gram,
    gram_from_inner,
    parse_forest,
    serialize,
    subtree_sums,
    tree_shapes,
)
from .pairing import (
    GramMatrix,
    InnerProduct,
    LinearForm,
    basis,
    form,
    inner,
    is_independent,
)
from .projector import (
    GermFraction,
    ProjectionContext,
    ev0_piplus,
    ev0_piplus_direct,
    piplus_expand,
    project_coeffs,
)
from .renorm import (
    RegularizedIntegral,
    RenormalizedValue,
    expand_r1,
    is_similar,
    r1,
    regularize,
    renormalize,
)
from .series import PiPoly, TruncSeries, h_series
from .oracle import (
    NumericAssignment,
    QuadConfig,
    admissible_assignment,
    closed_form_value,
    quad_single,
    quad_tree,
    renorm_subset_oracle,
)
from .universal import (
    BetaPhiTarget,
    OperatedLocalityTarget,
    SymbolicIntegralTarget,
    branched,
    fold,
    symbolic_integral_target,
)

__version__ = "0.1.0"
