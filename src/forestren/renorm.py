"""Regularization and renormalization of branched integrals.

The regularized value of a decorated forest is the closed-form symbol
x^(-sum of decorations) * prod_v pi/sin(pi L_v), one cosecant factor per
vertex, with L_v the subtree sum at v.  Evaluating at x = 1 keeps the factor
list; expanding each factor as 1/z_v + h(z_v) and clearing denominators
yields a single fraction with one simple pole per vertex, whose holomorphic
projection at zero is the renormalized value: an exact polynomial in pi^2.
The renormalized map is a locality character, so :func:`renormalize`
evaluates a forest tree by tree and multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .errors import NotProperlyDecorated, NumeratorTooLarge, TruncationBelowDegree
from .forest import (
    DecoratedForest,
    VertexId,
    canonical,
    check_properly_decorated,
    decorations,
    degree,
    forest_of,
    overlap_gram,
    subtree_sums,
    vertex_ids,
    vertex_weights,
)
from .pairing import InnerProduct, LinearForm, inner
from .projector import (
    GermFraction,
    ProjectionContext,
    ev0_piplus_direct,
)
from .series import (
    ONE_PIPOLY,
    ZERO_PIPOLY,
    PiPoly,
    TruncSeries,
    h_series,
    numerator_slice,
)

if TYPE_CHECKING:  # mpmath loads on the first numeric rendering
    import mpmath

# C(n/2 + n - 1, n - 1) terms at degree n: 77,520 at 14, 490,314 at 16.
# Projection keeps about 5 region states per term, near 0.8 KB each, so a
# 16-tree would need about 2 GB; a 14-ladder peaks near 330 MB.
MAX_SLICE_TERMS = 10**5
# germ projects the dense numerator of expand_r1; on a 2-core Xeon, degree 5
# takes up to 3 s at truncation 7 but 15 s at 8, and a 6-corolla minutes
MAX_GERM_DEGREE = 5
MAX_GERM_TRUNC_EXCESS = 2


@dataclass(frozen=True)
class RegularizedIntegral:
    """The symbol f * x^(-exponent) with f a product of cosecant factors.

    ``factors`` holds the arguments L of the pi/sin(pi L) factors, sorted
    canonically so that structural equality is multiset equality.
    """

    exponent: LinearForm
    factors: tuple[LinearForm, ...]

    @staticmethod
    def make(
        exponent: LinearForm, factors: tuple[LinearForm, ...]
    ) -> "RegularizedIntegral":
        return RegularizedIntegral(
            exponent, tuple(sorted(factors, key=lambda f: f.items))
        )


@dataclass(frozen=True)
class RenormalizedValue:
    """Exact value in Q[pi^2] together with a high-precision numeric rendering.

    ``numeric`` is evaluated at ``dps`` decimal digits on first access, so a
    value that is only printed exactly never loads mpmath.  Equality and
    hashing follow ``exact`` alone.
    """

    exact: PiPoly
    dps: int = field(default=30, compare=False)

    @staticmethod
    def from_exact(exact: PiPoly, dps: int = 30) -> "RenormalizedValue":
        return RenormalizedValue(exact, dps)

    @cached_property
    def numeric(self) -> mpmath.mpf:
        return self.exact.evalf(self.dps)

    def numeric_str(self, digits: int = 17) -> str:
        import mpmath

        return mpmath.nstr(self.numeric, digits)


def _require_properly_decorated(
    forest: DecoratedForest, Q: InnerProduct
) -> None:
    if not check_properly_decorated(forest, Q):
        raise NotProperlyDecorated(
            "the pipeline is defined only for properly decorated forests"
        )


def regularize(forest: DecoratedForest, Q: InnerProduct) -> RegularizedIntegral:
    """Closed form of the regularized branched integral attached to a forest."""
    _require_properly_decorated(forest, Q)
    sums = subtree_sums(forest)
    # The exponent is the sum of all decorations, equivalently the sum of the
    # root subtree sums of the individual trees.
    exponent = LinearForm(())
    for d in decorations(forest).values():
        exponent = exponent + d
    return RegularizedIntegral.make(exponent, tuple(sums.values()))


def r1(forest: DecoratedForest, Q: InnerProduct) -> tuple[LinearForm, ...]:
    """The cosecant factor list of the evaluation at x = 1."""
    return regularize(forest, Q).factors


def _require_trunc(forest: DecoratedForest, N: Optional[int]) -> int:
    """The truncation N, defaulting to degree + 2 and never below the degree."""
    deg = degree(forest)
    if N is None:
        return deg + 2
    if N < deg:
        raise TruncationBelowDegree(
            f"truncation {N} is below the forest degree {deg}"
        )
    return N


def expand_r1(
    forest: DecoratedForest, Q: InnerProduct, N: Optional[int] = None
) -> tuple[GermFraction, ProjectionContext]:
    """Laurent-expand the factor product into a single germ fraction.

    Each factor pi/sin(pi L_v) = 1/z_v + h(z_v) in the coordinate z_v = L_v;
    the product over all vertices equals
    prod_v (1 + z_v h(z_v)) / prod_v z_v, a fraction with one simple pole per
    vertex.  The context carries the Gram matrix of the subtree sums.
    """
    _require_properly_decorated(forest, Q)
    N = _require_trunc(forest, N)
    variables = vertex_ids(forest)
    numerator = TruncSeries.one(variables, N)
    for v in variables:
        factor = TruncSeries.one(variables, N) + h_series(
            v, N, variables
        ).mul_by_var(v).truncated(N)
        numerator = numerator * factor
    ctx = ProjectionContext(overlap_gram(forest, vertex_weights(forest, Q)))
    return GermFraction(numerator, frozenset(variables)), ctx


def renormalize(
    forest: DecoratedForest, Q: InnerProduct, N: Optional[int] = None
) -> RenormalizedValue:
    """The renormalized character: eval at zero of the projected expansion.

    Exact in Q[pi^2]; multiplicative over independent concatenation and
    invariant under global positive rescaling of the weights.  The value is
    the product of the trees' values, and the empty forest gives 1.  A tree
    of degree n gives a rational multiple of pi^n, and 0 when n is odd: its
    numerator prod_v (1 + z_v h(z_v)) has only even-degree terms, and only
    those of degree exactly n reach the value, so just that slice is built
    and projected with :func:`ev0_piplus_direct`.  Unless some tree is odd,
    a slice of more than :data:`MAX_SLICE_TERMS` terms (a tree of degree 16
    or more) raises :class:`NumeratorTooLarge` before any projection.  ``N``
    must be at least the forest degree but does not change the value.  The
    unfactored evaluation of :func:`expand_r1` on the whole forest is the
    reference the tests check this against.
    """
    _require_properly_decorated(forest, Q)
    _require_trunc(forest, N)
    weights = vertex_weights(forest, Q)
    degrees = [t.vertex_count() for t in forest.trees]
    if any(n % 2 for n in degrees):
        return RenormalizedValue.from_exact(ZERO_PIPOLY)
    for n in degrees:
        if math.comb(n // 2 + n - 1, n - 1) > MAX_SLICE_TERMS:
            raise NumeratorTooLarge(
                f"a tree of degree {n} needs more than {MAX_SLICE_TERMS}"
                " numerator terms"
            )
    value = ONE_PIPOLY
    for t in forest.trees:
        value = value * _tree_value(forest_of(t), weights)
    return RenormalizedValue.from_exact(value)


def _tree_value(
    tree: DecoratedForest, weights: dict[VertexId, Fraction]
) -> PiPoly:
    """Value of an even one-tree forest already validated by the caller."""
    n = degree(tree)
    variables = vertex_ids(tree)
    frac = GermFraction(numerator_slice(variables, n), frozenset(variables))
    ctx = ProjectionContext(overlap_gram(tree, weights))
    return ev0_piplus_direct(frac, ctx)


def is_similar(
    f1: DecoratedForest,
    Q1: InnerProduct,
    f2: DecoratedForest,
    Q2: InnerProduct,
) -> bool:
    """Same underlying forest with one global positive weight ratio.

    The candidate ratio is forced: it must equal the ratio of total weights.
    Scaling Q2 by it and comparing canonical encodings then settles the
    question without choosing a vertex matching by hand.
    """
    if f1.degree() != f2.degree():
        return False
    if f1.is_empty():
        return f2.is_empty()
    total1 = sum((inner(Q1, d, d) for d in decorations(f1).values()), start=0)
    total2 = sum((inner(Q2, d, d) for d in decorations(f2).values()), start=0)
    if total2 == 0 or total1 == 0:
        return False
    c = total1 / total2
    if c <= 0:
        return False
    return canonical(f1, Q1) == canonical(f2, Q2.scaled(c))
