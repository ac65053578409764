"""Independent verification paths for the symbolic pipeline.

Two cross-checks live here, deliberately built on different foundations than
the main code:

* adaptive numerical quadrature of the nested integrals themselves, using a
  double-exponential (tanh-sinh style) substitution evaluated in log space
  so that the improper endpoints and the deeply nested scale ranges stay
  inside float64;
* a literal subset-sum re-derivation of the renormalized value, expanding
  the cosecant product into its 2^n Laurent terms and projecting each term
  separately with a randomized telescoping order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .errors import ConvergenceFailure, DomainError, IndexOutOfRange
from .forest import (
    DecoratedForest,
    DecoratedTree,
    degree,
    gram,
    iter_vertices,
    subtree_sums,
    vertex_ids,
)
from .pairing import InnerProduct, LinearForm
from .projector import GermFraction, ProjectionContext, ev0_piplus
from .series import PiPoly, TruncSeries, ZERO_PIPOLY, h_series

if TYPE_CHECKING:  # numpy loads on the first quadrature call, not on import
    import numpy as np


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature controls.

    Parameters
    ----------
    rel_tol, abs_tol : float
        Convergence targets for the refinement loop; the estimate between
        two consecutive grids must drop below ``max(abs_tol, rel_tol*|I|)``.
    max_refinements : int
        Maximum number of grid-halving steps (subdivisions of the step
        size) before giving up with ConvergenceFailure.
    t_cut : float
        Cutoff of the transformed axis.  With y = exp(sinh t) the integrand
        decays like exp(-c*sinh(t_cut)) with c at least the distance of the
        exponents from {0, 1}, so the discarded tail is far below float64
        resolution for every admissible input.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_refinements: int = 8
    t_cut: float = 9.0

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class NumericAssignment:
    """Real values for the basis directions, inducing values of linear forms."""

    values: Mapping[int, float]

    def value_of(self, lf: LinearForm) -> float:
        total = 0.0
        for i, c in lf.items:
            if i not in self.values:
                raise IndexOutOfRange(f"no numeric value for basis index {i}")
            total += float(c) * self.values[i]
        return total


def _de_grid(level: int, cfg: QuadConfig):
    """Nodes of the double-exponential rule at the given refinement level.

    Returns
    -------
    log_y : ndarray
        log of the integration variable, log y_j = sinh(t_j).
    log_w : ndarray
        log of the quadrature weight, log(h * y_j * cosh(t_j)).
    """
    import numpy as np
    h = 0.5 / 2 ** level
    m = int(math.ceil(cfg.t_cut / h))
    t = h * np.arange(-m, m + 1)
    log_y = np.sinh(t)
    log_w = math.log(h) + log_y + np.log(np.cosh(t))
    return log_y, log_w


def _logsumexp(a: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    import numpy as np
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis))
    return out + np.squeeze(m, axis=axis)


def quad_single(a: float, x: float, cfg: QuadConfig = QuadConfig()) -> float:
    """Quadrature value of the integral of y^(-a)/(y+x) over (0, infinity).

    Parameters
    ----------
    a : float
        Exponent; must lie strictly inside (0, 1) for convergence.
    x : float
        Positive external parameter.

    Returns
    -------
    float
        The integral, matching pi/sin(pi*a) * x^(-a) within tolerance.
    """
    import numpy as np
    if not 0.0 < a < 1.0:
        raise DomainError(f"exponent {a} outside the convergence strip (0, 1)")
    if x <= 0:
        raise DomainError(f"external parameter {x} must be positive")
    log_x = math.log(x)
    prev = None
    for level in range(cfg.max_refinements + 1):
        log_y, log_w = _de_grid(level, cfg)
        log_terms = -a * log_y - np.logaddexp(log_y, log_x) + log_w
        value = float(math.exp(_logsumexp(log_terms)))
        if prev is not None and abs(value - prev) <= max(
            cfg.abs_tol, cfg.rel_tol * abs(value)
        ):
            return value
        prev = value
    raise ConvergenceFailure(
        f"quadrature did not stabilize after {cfg.max_refinements} refinements"
    )


def _check_strip(
    forest: DecoratedForest, assign: NumericAssignment
) -> dict[int, float]:
    sums = subtree_sums(forest)
    values: dict[int, float] = {}
    for v, s in sums.items():
        val = assign.value_of(s)
        if not 0.0 < val < 1.0:
            raise DomainError(
                f"subtree sum at vertex {v} evaluates to {val}, outside (0, 1)"
            )
        values[v] = val
    return values


def _forest_log_value(
    trees: Sequence[DecoratedTree],
    log_x: np.ndarray,
    assign: NumericAssignment,
    log_y: np.ndarray,
    log_w: np.ndarray,
) -> np.ndarray:
    """log of the nested-integral value of a forest at each point of log_x.

    Every nesting level integrates over the same fixed grid; the recursion
    evaluates each subtree once on that grid and contracts against the
    kernel for all outer points in one dense operation.
    """
    import numpy as np
    total = np.zeros_like(log_x)
    for t in trees:
        a_root = assign.value_of(t.decoration)
        if t.children:
            child_log = _forest_log_value(
                t.children, log_y, assign, log_y, log_w
            )
        else:
            child_log = np.zeros_like(log_y)
        log_terms = (
            child_log[None, :]
            - a_root * log_y[None, :]
            - np.logaddexp(log_y[None, :], log_x[:, None])
            + log_w[None, :]
        )
        total = total + _logsumexp(log_terms, axis=1)
    return total


def quad_tree(
    forest: DecoratedForest,
    assign: NumericAssignment,
    x: float,
    cfg: QuadConfig = QuadConfig(),
) -> float:
    """Numeric value of the nested branched integral of a decorated forest.

    Parameters
    ----------
    forest : DecoratedForest
        The index forest; children are integrated before their root.
    assign : NumericAssignment
        Real values for the basis directions.  Every subtree sum must
        evaluate into (0, 1) so that each nested integral converges.
    x : float
        Positive external parameter.

    Returns
    -------
    float
        The nested integral, matching the numeric rendering of the closed
        form x^(-E) * prod_v pi/sin(pi L_v) within tolerance.
    """
    if x <= 0:
        raise DomainError(f"external parameter {x} must be positive")
    _check_strip(forest, assign)
    if forest.is_empty():
        return 1.0
    import numpy as np
    log_x = np.array([math.log(x)])
    prev = None
    for level in range(cfg.max_refinements + 1):
        log_y, log_w = _de_grid(level, cfg)
        log_value = _forest_log_value(forest.trees, log_x, assign, log_y, log_w)
        try:
            value = float(math.exp(log_value[0]))
        except OverflowError:
            raise DomainError("value overflows float64") from None
        if prev is not None and abs(value - prev) <= max(
            cfg.abs_tol, cfg.rel_tol * abs(value)
        ):
            return value
        prev = value
    raise ConvergenceFailure(
        f"nested quadrature did not stabilize after {cfg.max_refinements}"
        " refinements"
    )


def closed_form_value(
    forest: DecoratedForest, assign: NumericAssignment, x: float
) -> float:
    """Numeric rendering of the closed form, for comparison with quad_tree."""
    values = _check_strip(forest, assign)
    exponent = 0.0
    for node in iter_vertices(forest):
        exponent += assign.value_of(node.decoration)
    try:
        out = x ** (-exponent)
    except OverflowError:
        out = math.inf
    for val in values.values():
        out *= math.pi / math.sin(math.pi * val)
    if math.isinf(out):
        raise DomainError("value overflows float64")
    return out


def admissible_assignment(
    forest: DecoratedForest, rng: random.Random
) -> NumericAssignment:
    """A random assignment keeping every subtree sum inside (0, 1).

    Requires canonical-mode decorations (one basis direction per vertex).
    Each decoration value is drawn from c*(0.5, 1) with c chosen so that
    even the largest subtree stays below 0.9.
    """
    if forest.is_empty():
        return NumericAssignment({})
    # The largest subtree is a whole tree.
    cap = 0.9 / max(t.vertex_count() for t in forest.trees)
    values: dict[int, float] = {}
    for node in iter_vertices(forest):
        items = node.decoration.items
        if len(items) != 1 or items[0][1] != 1:
            raise DomainError(
                "random admissible assignments need canonical-mode decorations"
            )
        values[items[0][0]] = cap * rng.uniform(0.5, 1.0)
    return NumericAssignment(values)


def renorm_subset_oracle(
    forest: DecoratedForest,
    Q: InnerProduct,
    N: Optional[int] = None,
    seed: int = 0,
) -> PiPoly:
    """Renormalized value by the literal 2^n subset expansion.

    The cosecant product is expanded as the sum over subsets S of vertices
    of (prod_{v in S} 1/z_v) * (prod_{v not in S} h(z_v)); every term is
    projected on its own, with a randomized telescoping order per term, and
    the results are summed.  Must equal the single-fraction pipeline
    exactly.
    """
    deg = degree(forest)
    if deg > 12:
        raise ValueError("subset oracle is limited to forests of degree <= 12")
    if N is None:
        N = deg + 2
    variables = vertex_ids(forest)
    gram_matrix = gram(forest, Q)
    total = ZERO_PIPOLY
    n = len(variables)
    for mask in range(2 ** n):
        pole_set = frozenset(
            variables[k] for k in range(n) if mask & (1 << k)
        )
        numerator = TruncSeries.one(variables, N)
        for k in range(n):
            if mask & (1 << k):
                continue
            numerator = numerator * h_series(variables[k], N, variables)
        ctx = ProjectionContext(
            gram_matrix, order_rng=random.Random(seed * 1000003 + mask)
        )
        total = total + ev0_piplus(
            GermFraction(numerator, pole_set), ctx
        )
    return total
