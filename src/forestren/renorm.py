"""Regularization and renormalization of branched integrals.

The regularized value of a decorated forest is the closed-form symbol
x^(-sum of decorations) * prod_v pi/sin(pi L_v), one cosecant factor per
vertex, with L_v the subtree sum at v.  Evaluating at x = 1 keeps the factor
list; expanding each factor as 1/z_v + h(z_v) and clearing denominators
yields a single fraction with one simple pole per vertex, whose holomorphic
projection at zero is the renormalized value: an exact polynomial in pi^2.
The renormalized map is a locality character, so :func:`renormalize`
evaluates a forest tree by tree, each over its walk's nesting, and multiplies.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .errors import NumeratorTooLarge, TruncationBelowDegree
from .forest import (
    DecoratedForest,
    _laminar,
    canonical,
    decorations,
    degree,
    forest_of,
    gram,
    subtree_sums,
    vertex_ids,
    vertex_weights,
)
from .pairing import Frozen, InnerProduct, LinearForm, inner
from .region import Nesting, ev0_tree
from .series import ONE_PIPOLY, ZERO_PIPOLY, PiPoly

if TYPE_CHECKING:
    # mpmath loads only for ``numeric``; rendering needs none.  The
    # projector's telescoping reference loads only for expand_r1.
    import mpmath

    from .projector import GermFraction, ProjectionContext

# C(n/2 + n - 1, n - 1) terms at degree n: 77,520 at 14, 490,314 at 16.
# Projection keeps about 5 region states per term, about 240 bytes each
# (0.3 KB of peak RSS), so a 16-tree would need about 1 GB; a 14-ladder
# peaks at 121 MB.
MAX_SLICE_TERMS = 10**5
# germ projects the dense numerator of expand_r1; on a 2-core Xeon, degree 5
# takes up to 3 s at truncation 7 but 15 s at 8, and a 6-corolla minutes
MAX_GERM_DEGREE = 5
MAX_GERM_TRUNC_EXCESS = 2


class RegularizedIntegral(Frozen):
    """The symbol f * x^(-exponent) with f a product of cosecant factors.

    ``factors`` holds the arguments L of the pi/sin(pi L) factors, sorted
    canonically so that structural equality is multiset equality.
    """

    __slots__ = _fields = ("exponent", "factors")
    exponent: LinearForm
    factors: tuple[LinearForm, ...]

    def __init__(
        self, exponent: LinearForm, factors: tuple[LinearForm, ...]
    ) -> None:
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "factors", factors)

    @staticmethod
    def make(
        exponent: LinearForm, factors: tuple[LinearForm, ...]
    ) -> "RegularizedIntegral":
        return RegularizedIntegral(
            exponent, tuple(sorted(factors, key=lambda f: f.items))
        )


class RenormalizedValue(Frozen):
    """Exact value in Q[pi^2] together with a high-precision numeric rendering.

    ``numeric_str`` renders the exact value with ints alone
    (:meth:`PiPoly.numeric_str`), so printing a value, exactly or as a
    float, never loads mpmath.  ``numeric`` is the mpmath ``mpf`` at 30
    decimal digits, evaluated on first access.
    """

    _fields = ("exact",)
    __slots__ = (*_fields, "__dict__")  # the cached property lives in __dict__
    exact: PiPoly

    def __init__(self, exact: PiPoly) -> None:
        object.__setattr__(self, "exact", exact)

    @staticmethod
    def from_exact(exact: PiPoly) -> "RenormalizedValue":
        return RenormalizedValue(exact)

    @cached_property
    def numeric(self) -> mpmath.mpf:
        return self.exact.evalf(30)

    def numeric_str(self, digits: int = 17) -> str:
        return self.exact.numeric_str(digits)


def regularize(forest: DecoratedForest, Q: InnerProduct) -> RegularizedIntegral:
    """Closed form of the regularized branched integral attached to a forest."""
    vertex_weights(forest, Q)  # validates the forest
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
    vertex.  The context carries the Gram matrix of the subtree sums, whose
    :func:`gram` validates the forest.
    """
    from .projector import (
        GermFraction,
        ProjectionContext,
        TruncSeries,
        h_series,
    )

    ctx = ProjectionContext(gram(forest, Q))
    N = _require_trunc(forest, N)
    variables = vertex_ids(forest)
    numerator = TruncSeries.one(variables, N)
    for v in variables:
        factor = TruncSeries.one(variables, N) + h_series(
            v, N, variables
        ).mul_by_var(v).truncated(N)
        numerator = numerator * factor
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
    those of degree exactly n reach the value, so :func:`ev0_tree` projects
    just those, over the :class:`Nesting` that :meth:`Nesting.build` makes
    from the tree's walk, the one :func:`gram` reads.  Unless some
    tree is odd, a slice of more than :data:`MAX_SLICE_TERMS` terms (a tree
    of degree 16 or more) raises :class:`NumeratorTooLarge` before any
    projection.  ``N`` must be at least the forest degree but does not
    change the value.  The forest is validated first, by
    :func:`vertex_weights`.  The unfactored evaluation of :func:`expand_r1`
    on the whole forest is the reference the tests check this against.
    """
    weights = vertex_weights(forest, Q)
    _require_trunc(forest, N)
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
        total, pairs, _ = _laminar(forest_of(t), weights)
        value = value * ev0_tree(Nesting.build(total, pairs))
    return RenormalizedValue.from_exact(value)


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
