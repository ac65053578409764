"""Rational linear forms, inner products, and Gram matrices.

Everything in this module is exact: coefficients are `fractions.Fraction`,
and all predicates (orthogonality, positive definiteness) are decided by
exact arithmetic, through one Gaussian elimination routine.  The
independence relation used throughout the package is Q-orthogonality of
linear forms.  Building the Gram matrix of a forest's subtree sums belongs
to :mod:`forestren.forest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .errors import IndexOutOfRange, SingularGram

Rational = Union[Fraction, int]
# Fractions are immutable, so every missing entry can share one zero.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearForm:
    """A sparse covector with rational coefficients.

    ``items`` is the normalized representation: pairs ``(index, coefficient)``
    sorted by index with every coefficient nonzero.  Use :meth:`from_coeffs`
    (or the module helpers :func:`form` and :func:`basis`) rather than the raw
    constructor.
    """

    items: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, Rational]) -> "LinearForm":
        norm = tuple(
            sorted((i, Fraction(c)) for i, c in coeffs.items() if Fraction(c) != 0)
        )
        return LinearForm(norm)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.items)

    def coeff(self, index: int) -> Fraction:
        for i, c in self.items:
            if i == index:
                return c
        return _ZERO

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "LinearForm") -> "LinearForm":
        short, long = sorted((self.items, other.items), key=len)
        # Reuse the longer form's pairs: a fresh pair per coefficient on
        # every add leaves deep subtree sums GC-bound.  Keys are unique, so
        # the sort never compares coefficients.
        pairs = {p[0]: p for p in long}
        for i, c in short:
            prev = pairs.pop(i, None)
            c = c if prev is None else c + prev[1]
            if c:
                pairs[i] = (i, c)
        return LinearForm(tuple(sorted(pairs.values())))

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple((i, -c) for i, c in self.items))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def scaled(self, c: Rational) -> "LinearForm":
        c = Fraction(c)
        if c == 0:
            return ZERO_FORM
        return LinearForm(tuple((i, c * coeff) for i, coeff in self.items))

    def __rmul__(self, c: Rational) -> "LinearForm":
        return self.scaled(c)

    def __str__(self) -> str:
        if not self.items:
            return "0"
        parts: list[str] = []
        for i, c in self.items:
            if c == 1:
                term = f"e{i}"
            elif c == -1:
                term = f"-e{i}"
            else:
                term = f"{c}*e{i}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term.lstrip("-"))
            else:
                parts.append(term)
        return " ".join(parts)


ZERO_FORM = LinearForm(())


def form(coeffs: Mapping[int, Rational]) -> LinearForm:
    """Build a linear form from an index-to-coefficient mapping."""
    return LinearForm.from_coeffs(coeffs)


def basis(index: int) -> LinearForm:
    """The basis covector e_index."""
    return LinearForm(((index, Fraction(1)),))


@dataclass(frozen=True)
class InnerProduct:
    """A symmetric rational pairing on a finite active index set.

    ``entries`` stores the upper triangle sparsely: ``((i, j), value)`` with
    ``i <= j`` and nonzero value.  Indices outside ``indices`` are rejected by
    :func:`inner` with :class:`IndexOutOfRange`.
    """

    indices: tuple[int, ...]
    entries: tuple[tuple[tuple[int, int], Fraction], ...]

    @cached_property
    def _table(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.entries)

    @cached_property
    def _active(self) -> frozenset[int]:
        return frozenset(self.indices)

    def entry(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        return self._table.get((i, j), _ZERO)

    @staticmethod
    def diagonal(weights: Mapping[int, Rational]) -> "InnerProduct":
        idx = tuple(sorted(weights))
        entries = tuple(
            ((i, i), Fraction(weights[i])) for i in idx if Fraction(weights[i]) != 0
        )
        return InnerProduct(idx, entries)

    @staticmethod
    def identity(n: int) -> "InnerProduct":
        return InnerProduct.diagonal({i: 1 for i in range(n)})

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[Rational]]) -> "InnerProduct":
        """Build from a dense symmetric matrix; raises ValueError if asymmetric."""
        n = len(rows)
        mat = [[Fraction(x) for x in row] for row in rows]
        if any(len(row) != n for row in mat):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        entries = tuple(
            ((i, j), mat[i][j])
            for i in range(n)
            for j in range(i, n)
            if mat[i][j] != 0
        )
        return InnerProduct(tuple(range(n)), entries)

    def scaled(self, c: Rational) -> "InnerProduct":
        c = Fraction(c)
        if c == 0:
            raise ValueError("inner product scale must be nonzero")
        return InnerProduct(
            self.indices, tuple((ij, c * v) for ij, v in self.entries)
        )

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j), _ in self.entries)

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion on the dense matrix of the active set."""
        idx = self.indices
        return _positive_definite([[self.entry(i, j) for j in idx] for i in idx])


def _eliminate(a: list[list[Fraction]]) -> tuple[list[Fraction], int]:
    """Exact forward elimination of the leading square block of ``a``, in place.

    Each step pivots on the first nonzero entry at or below the diagonal, and
    columns past the block (a right-hand side) are carried along; entries
    below the diagonal are left stale.  Returns the pivots and the number of
    row swaps.  A singular block ends the pivots with a zero.
    """
    n = len(a)
    pivots: list[Fraction] = []
    swaps = 0
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return pivots + [Fraction(0)], swaps
        if p != k:
            a[k], a[p] = a[p], a[k]
            swaps += 1
        row_k = a[k]
        pivot = row_k[k]
        pivots.append(pivot)
        for row in a[k + 1 :]:
            if row[k] == 0:
                continue
            factor = row[k] / pivot
            for j in range(k + 1, len(row)):
                row[j] -= factor * row_k[j]
    return pivots, swaps


def _positive_definite(a: list[list[Fraction]]) -> bool:
    # A zero pivot forces a swap.  Without swaps the pivots are the ratios of
    # successive leading principal minors, so all pivots > 0 iff all minors > 0.
    pivots, swaps = _eliminate(a)
    return swaps == 0 and all(p > 0 for p in pivots)


def inner(Q: InnerProduct, a: LinearForm, b: LinearForm) -> Fraction:
    """The bilinear value Q(a, b)."""
    for lf in (a, b):
        outside = lf.support - Q._active
        if outside:
            raise IndexOutOfRange(
                f"index {min(outside)} outside the active set of the inner product"
            )
    total = Fraction(0)
    for i, ca in a.items:
        for j, cb in b.items:
            q = Q.entry(i, j)
            if q != 0:
                total += ca * cb * q
    return total


def is_independent(Q: InnerProduct, a: LinearForm, b: LinearForm) -> bool:
    """True iff a and b are Q-orthogonal (the locality relation)."""
    return inner(Q, a, b) == 0


@dataclass(frozen=True)
class GramMatrix:
    """A symmetric matrix Q(L_v, L_w) over labelled linear forms L_v.

    ``vertices`` is sorted; ``rows`` is dense.  Positive definiteness holds
    for the subtree sums of a properly decorated forest with positive
    weights, and the exact solver below raises :class:`SingularGram`
    otherwise.
    """

    vertices: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def entry(self, v: int, w: int) -> Fraction:
        return self.rows[self._pos[v]][self._pos[w]]

    def scaled(self, c: Rational) -> "GramMatrix":
        c = Fraction(c)
        return GramMatrix(
            self.vertices, tuple(tuple(c * x for x in row) for row in self.rows)
        )

    def det(self) -> Fraction:
        pivots, swaps = _eliminate([list(row) for row in self.rows])
        return math.prod(pivots, start=Fraction(-1 if swaps % 2 else 1))

    def is_positive_definite(self) -> bool:
        return _positive_definite([list(row) for row in self.rows])

    def solve(self, sub: Sequence[int], rhs: Sequence[Fraction]) -> list[Fraction]:
        """Solve (Gram restricted to ``sub``) x = rhs exactly.

        Raises SingularGram when the restricted matrix is singular; for
        properly decorated input this cannot happen.
        """
        n = len(sub)
        a = [[self.entry(v, w) for w in sub] + [rhs[i]] for i, v in enumerate(sub)]
        if 0 in _eliminate(a)[0]:
            raise SingularGram("Gram subsystem is singular")
        x: list[Fraction] = [Fraction(0)] * n
        for i in reversed(range(n)):
            row = a[i]
            s = row[n]
            for j in range(i + 1, n):
                s -= row[j] * x[j]
            x[i] = s / row[i]
        return x
