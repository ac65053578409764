"""Independent verification paths for the symbolic pipeline.

Two cross-checks live here, deliberately built on different foundations than
the main code:

* adaptive numerical quadrature of the nested integrals themselves, using a
  double-exponential (tanh-sinh style) substitution evaluated in log space
  so that the improper endpoints and the deeply nested scale ranges stay
  inside float64.  Every vertex integrates over the same grid, so each
  refinement level builds the kernel 1/(y_j + y_k) once, rescaled to lie in
  [1/2, 1), and every vertex but a root contracts against it with
  block-scaled multiply-adds instead of transcendentals.  Only the near
  tiles of that kernel are stored: between nodes far apart on the grid the
  rescaled kernel is exactly 1.0, so a far block contracts as its sum;
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
from .pairing import InnerProduct, LinearForm, basis
from .projector import GermFraction, ProjectionContext, ev0_piplus
from .series import PiPoly, TruncSeries, ZERO_PIPOLY, h_series

if TYPE_CHECKING:  # numpy loads on the first quadrature call, not on import
    import numpy as np

# Kernel entries (grid nodes squared, times the vertices that are not roots,
# which contract against the level's kernel once each) that quad_tree may
# contract at one refinement level, a far block of ones counted in full: they
# bound its time, while its memory is only the near tiles of one kernel per
# level, 16% of nodes squared at level 5 and 14% at level 6.  The 4-vertex
# tree (1 (2) (3 (1))) converges at level 6 with 15.9 million, the
# benchmark's quadrature trees by level 5 with at most 6.6 million (5
# contractions); a 50-deep ladder would need 65 million at level 5.
MAX_QUAD_KERNEL = 2 * 10**7

# Convergence targets of the refinement loop: the estimates of two
# consecutive grids must differ by at most max(ABS_TOL, REL_TOL * |I|).
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Grid-halving steps (subdivisions of the step size) before giving up with
# ConvergenceFailure.
MAX_REFINEMENTS = 8
# Cutoff of the transformed axis.  With y = exp(sinh t) the integrand decays
# like exp(-c*sinh(T_CUT)) with c at least the distance of the exponents from
# {0, 1}, so the discarded tail is far below float64 resolution for every
# admissible input.
T_CUT = 9.0


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


def _de_grid(level: int):
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
    m = int(math.ceil(T_CUT / h))
    t = h * np.arange(-m, m + 1)
    log_y = np.sinh(t)
    log_w = math.log(h) + log_y + np.log(np.cosh(t))
    return log_y, log_w


def _finite_max(a: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Maxima of a along axis (kept), with 0 where no entry is finite."""
    import numpy as np
    m = np.max(a, axis=axis, keepdims=True)
    return np.where(np.isfinite(m), m, 0.0)


def _logsumexp(a: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    import numpy as np
    m = _finite_max(a, axis)
    a = a - m
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(a, axis=axis))
    return out + np.squeeze(m, axis=axis)


def quad_single(a: float, x: float) -> float:
    """Quadrature value of the integral of y^(-a)/(y+x) over (0, infinity).

    This is :func:`quad_tree` on the one-vertex forest decorated by a.

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
    if not 0.0 < a < 1.0:
        raise DomainError(f"exponent {a} outside the convergence strip (0, 1)")
    vertex = DecoratedTree(0, basis(0), ())
    return quad_tree(
        DecoratedForest((vertex,)), NumericAssignment({0: a}), x
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


# Grid nodes per block of the shared kernel.  Each vertex scales its weights
# block by block, so every product against the kernel sums terms of one scale.
_KERNEL_BLOCK = 64
# Log-distance beyond which 1 + e^(-d) rounds to 1 in float64, so that the
# kernel entry B is exactly 1.0.  Entries are clipped here, which spares exp
# its slow underflow path, and a tile whose nodes all lie this far apart is
# not stored at all.
_KERNEL_CLIP = 40.0


def _near_tiles(log_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column blocks (r > b) of the tiles where B is not all ones.

    The grid ascends, so the smallest log-distance between blocks r > b is
    first(r) - last(b); a tile is near when that is below the clip.
    """
    import numpy as np
    first = log_y[::_KERNEL_BLOCK]
    last = log_y[_KERNEL_BLOCK - 1::_KERNEL_BLOCK]
    if len(last) < len(first):
        last = np.append(last, log_y[-1])
    near = first[:, None] - last[None, :] < _KERNEL_CLIP
    return np.nonzero(np.tril(near, -1))


class _LevelKernel:
    """The kernel 1/(y_j + y_k) of one refinement level, shared by every vertex.

    1/(y_j + y_k) = B_jk / max(y_j, y_k), where B_jk = 1/(1 + e^(-|log y_j -
    log y_k|)) lies in [1/2, 1) and depends on the grid alone.  The nodes are
    split into blocks of ``_KERNEL_BLOCK``.  Against a block wholly below row
    j the max is y_j, against one wholly above it is y_k; so with the block's
    weights scaled by their largest exponent (c_k below, c_k - log y_k above),
    every off-diagonal block of every row is one multiply-add product against
    B.  A row's own block, where the max changes sides, stays in log space.

    On the double-exponential grid most blocks lie more than ``_KERNEL_CLIP``
    apart, where B is exactly 1.0 and the product is the block's sum.  Only
    the near tiles below the diagonal are stored; B is symmetric, so the
    tile above the diagonal is the transpose of its mirror.
    """

    def __init__(self, log_y: np.ndarray) -> None:
        import numpy as np
        m = len(log_y)
        blocks = -(-m // _KERNEL_BLOCK)
        # Padding nodes repeat the last node and always carry weight 0; their
        # rows are dropped from every contraction.
        padded = np.full(blocks * _KERNEL_BLOCK, log_y[-1])
        padded[:m] = log_y
        tiled = padded.reshape(blocks, _KERNEL_BLOCK)
        self.rows, self.cols = _near_tiles(log_y)
        # tiles[t, i, k] = B between node i of block rows[t] and node k of
        # block cols[t]; rows[t] > cols[t], so the distance is not negative.
        tiles = tiled[self.rows, :, None] - tiled[self.cols, None, :]
        np.minimum(tiles, _KERNEL_CLIP, out=tiles)
        np.negative(tiles, out=tiles)
        np.exp(tiles, out=tiles)
        tiles += 1.0
        np.reciprocal(tiles, out=tiles)
        self.tiles = tiles
        self.m = m
        self.tiled = tiled
        row_block = np.arange(len(padded)) // _KERNEL_BLOCK
        self.below = np.arange(blocks)[:, None] < row_block[None, :]
        # diag_log[r, i, k] = -log(y_i + y_k) within block r.
        self.diag_log = -np.logaddexp(tiled[:, :, None], tiled[:, None, :])

    def contract(self, log_c: np.ndarray) -> np.ndarray:
        """log of the sum over k of e^(log_c[k]) / (y_j + y_k), at every node j."""
        import numpy as np
        blocks = len(self.tiled)
        weights = np.full(self.tiled.shape, -np.inf)
        weights.reshape(-1)[: len(log_c)] = log_c
        upper = weights - self.tiled
        lower_top = _finite_max(weights, axis=1)
        upper_top = _finite_max(upper, axis=1)
        lower = np.exp(weights - lower_top)
        upper = np.exp(upper - upper_top)
        # terms[b, j]: log of the sum over block b at row j, first as if every
        # tile were far, where B is all ones and the product is a block sum.
        with np.errstate(divide="ignore"):
            far_lower = np.log(lower.sum(axis=1, keepdims=True)) + lower_top
            far_upper = np.log(upper.sum(axis=1, keepdims=True)) + upper_top
            terms = np.where(
                self.below, far_lower - self.tiled.reshape(-1), far_upper
            )
            near = np.matmul(self.tiles, lower[self.cols, :, None])[:, :, 0]
            mirror = np.matmul(
                self.tiles.transpose(0, 2, 1), upper[self.rows, :, None]
            )[:, :, 0]
            grid = terms.reshape(blocks, blocks, _KERNEL_BLOCK)
            grid[self.cols, self.rows] = (
                np.log(near) + lower_top[self.cols] - self.tiled[self.rows]
            )
            grid[self.rows, self.cols] = np.log(mirror) + upper_top[self.rows]
        own = np.arange(blocks)
        grid[own, own] = _logsumexp(
            weights[:, None, :] + self.diag_log, axis=2
        )
        return _logsumexp(terms, axis=0)[: self.m]


def _tree_log_weights(
    tree: DecoratedTree,
    assign: NumericAssignment,
    log_y: np.ndarray,
    log_w: np.ndarray,
    kernel: Optional[_LevelKernel],
) -> np.ndarray:
    """log of the root's integrand at each grid node, subtrees integrated out.

    Every nesting level integrates over the same grid, so each child is
    evaluated on it once and contracted against the level's shared kernel.
    """
    log_c = log_w - assign.value_of(tree.decoration) * log_y
    for child in tree.children:
        log_c = log_c + kernel.contract(
            _tree_log_weights(child, assign, log_y, log_w, kernel)
        )
    return log_c


def _forest_log_value(
    trees: Sequence[DecoratedTree],
    assign: NumericAssignment,
    log_x: float,
    log_y: np.ndarray,
    log_w: np.ndarray,
) -> float:
    """log of the nested-integral value of a forest at the point e^log_x."""
    import numpy as np
    # Only vertices with children integrate against the kernel.
    kernel = _LevelKernel(log_y) if any(t.children for t in trees) else None
    to_root = -np.logaddexp(log_y, log_x)
    return sum(
        float(_logsumexp(
            _tree_log_weights(t, assign, log_y, log_w, kernel) + to_root
        ))
        for t in trees
    )


def quad_tree(
    forest: DecoratedForest,
    assign: NumericAssignment,
    x: float,
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
        form x^(-E) * prod_v pi/sin(pi L_v) within tolerance: the grid step
        halves until two consecutive estimates differ by at most
        max(:data:`ABS_TOL`, :data:`REL_TOL` * |I|).

    Raises
    ------
    ConvergenceFailure
        When :data:`MAX_REFINEMENTS` refinements run out, or before a level
        whose non-root vertices would contract more than
        :data:`MAX_QUAD_KERNEL` kernel entries in all.
    """
    if x <= 0:
        raise DomainError(f"external parameter {x} must be positive")
    _check_strip(forest, assign)
    if forest.is_empty():
        return 1.0
    log_x = math.log(x)
    contractions = forest.degree() - len(forest.trees)
    prev = None
    for level in range(MAX_REFINEMENTS + 1):
        log_y, log_w = _de_grid(level)
        entries = len(log_y) ** 2 * contractions
        if entries > MAX_QUAD_KERNEL:
            raise ConvergenceFailure(
                "nested quadrature did not stabilize before refinement"
                f" {level}, which needs {entries} kernel entries"
                f" (limit {MAX_QUAD_KERNEL})"
            )
        log_value = _forest_log_value(forest.trees, assign, log_x, log_y, log_w)
        try:
            value = float(math.exp(log_value))
        except OverflowError:
            raise DomainError("value overflows float64") from None
        if prev is not None and abs(value - prev) <= max(
            ABS_TOL, REL_TOL * abs(value)
        ):
            return value
        prev = value
    raise ConvergenceFailure(
        f"nested quadrature did not stabilize after {MAX_REFINEMENTS}"
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
    seed: int = 0,
) -> PiPoly:
    """Renormalized value by the literal 2^n subset expansion.

    The cosecant product is expanded as the sum over subsets S of vertices
    of (prod_{v in S} 1/z_v) * (prod_{v not in S} h(z_v)); every term is
    projected on its own, with a randomized telescoping order per term, and
    the results are summed.  Each numerator is built up to the forest
    degree, which bounds every pole count, so it holds every Taylor term
    that can reach the value at zero.  Must equal the single-fraction
    pipeline exactly.
    """
    deg = degree(forest)
    if deg > 12:
        raise ValueError("subset oracle is limited to forests of degree <= 12")
    variables = vertex_ids(forest)
    gram_matrix = gram(forest, Q)
    total = ZERO_PIPOLY
    n = len(variables)
    for mask in range(2 ** n):
        pole_set = frozenset(
            variables[k] for k in range(n) if mask & (1 << k)
        )
        numerator = TruncSeries.one(variables, deg)
        for k in range(n):
            if mask & (1 << k):
                continue
            numerator = numerator * h_series(variables[k], deg, variables)
        ctx = ProjectionContext(
            gram_matrix, order_rng=random.Random(seed * 1000003 + mask)
        )
        total = total + ev0_piplus(
            GermFraction(numerator, pole_set), ctx
        )
    return total
