"""forestren: exact renormalization of branched integrals on decorated rooted forests.

The public names resolve lazily (PEP 562): ``import forestren`` loads no
submodule, and the first access of a name imports only the submodule that
defines it, then keeps the value here, so later lookups are plain attribute
reads.  ``from forestren import *`` and ``dir(forestren)`` list every public
name and the submodules that define them.
"""

from importlib import import_module

# Each public name, grouped under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "ConvergenceFailure",
        "DomainError",
        "ForestrenError",
        "IndexOutOfRange",
        "LocalityViolation",
        "NonPositiveWeight",
        "NotDivisible",
        "NotProperlyDecorated",
        "NumeratorTooLarge",
        "ParseError",
        "SingularGram",
        "TruncationBelowDegree",
        "VariableMismatch",
    ),
    "forest": (
        "DecoratedForest",
        "DecoratedTree",
        "EMPTY_FOREST",
        "canonical",
        "check_properly_decorated",
        "concat",
        "decompose",
        "degree",
        "forest_shapes",
        "from_shape",
        "graft",
        "gram",
        "gram_from_inner",
        "parse_forest",
        "serialize",
        "subtree_sums",
        "tree_shapes",
    ),
    "pairing": (
        "GramMatrix",
        "InnerProduct",
        "LinearForm",
        "basis",
        "form",
        "inner",
        "is_independent",
    ),
    "projector": (
        "GermFraction",
        "ProjectionContext",
        "ev0_piplus",
        "ev0_piplus_direct",
        "piplus_expand",
        "project_coeffs",
    ),
    "renorm": (
        "RegularizedIntegral",
        "RenormalizedValue",
        "expand_r1",
        "is_similar",
        "r1",
        "regularize",
        "renormalize",
    ),
    "series": ("PiPoly", "TruncSeries", "h_series"),
    "oracle": (
        "NumericAssignment",
        "QuadConfig",
        "admissible_assignment",
        "closed_form_value",
        "quad_single",
        "quad_tree",
        "renorm_subset_oracle",
    ),
    "universal": (
        "BetaPhiTarget",
        "OperatedLocalityTarget",
        "SymbolicIntegralTarget",
        "branched",
        "fold",
        "symbolic_integral_target",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
