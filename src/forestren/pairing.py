"""Rational linear forms and inner products.

Everything in this module is exact: coefficients are `fractions.Fraction`,
and all predicates (orthogonality, positive definiteness) are decided by
exact arithmetic, through one Gaussian elimination routine.  The
independence relation used throughout the package is Q-orthogonality of
linear forms.  The Gram matrix Q(L_v, L_w) of a forest's subtree sums is an
:class:`InnerProduct` too, on the vertex ids, that is, the pairing Q induces
on the coordinates z_v = L_v; building it belongs to
:mod:`forestren.forest`.  :class:`Frozen`, the value base of every
immutable class in the package, lives here because this is the lowest
module that defines one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .errors import IndexOutOfRange, InvalidArgument, SingularGram

Rational = Union[Fraction, int]
# Fractions are immutable, so every missing entry can share one zero.
_ZERO = Fraction(0)


class Frozen:
    """Value semantics for the package's immutable classes.

    A subclass keeps its fields in ``__slots__``, lists them in ``_fields``
    and sets them in ``__init__`` with ``object.__setattr__``; after that,
    assigning or deleting any attribute raises ``AttributeError``.  Objects
    of the same class are equal when their field tuples are, and hash as
    that tuple; against any other class ``==`` returns ``NotImplemented``.
    The repr is ``Name(field=value, ...)``, and copy and pickle rebuild an
    object by calling the class on its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LinearForm(Frozen):
    """A sparse covector with rational coefficients.

    ``items`` is the normalized representation: pairs ``(index, coefficient)``
    sorted by index with every coefficient nonzero.  Use :meth:`from_coeffs`
    (or the module helpers :func:`form` and :func:`basis`) rather than the raw
    constructor.
    """

    __slots__ = _fields = ("items",)
    items: tuple[tuple[int, Fraction], ...]

    def __init__(self, items: tuple[tuple[int, Fraction], ...]) -> None:
        object.__setattr__(self, "items", items)

    # written out: forms are compared and hashed in the hot loops
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.items,))

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


class InnerProduct(Frozen):
    """A symmetric rational pairing on a finite active index set.

    ``entries`` stores the upper triangle sparsely: ``((i, j), value)`` with
    ``i <= j`` and nonzero value.  Indices outside ``indices`` are rejected by
    :func:`inner` with :class:`IndexOutOfRange`.  On the vertex ids of a
    forest it is the Gram matrix of the subtree sums.
    """

    _fields = ("indices", "entries")
    __slots__ = (*_fields, "__dict__")  # the cached properties live in __dict__
    indices: tuple[int, ...]
    entries: tuple[tuple[tuple[int, int], Fraction], ...]

    def __init__(
        self,
        indices: tuple[int, ...],
        entries: tuple[tuple[tuple[int, int], Fraction], ...],
    ) -> None:
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "entries", entries)

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
        """Build from a dense symmetric matrix; raises InvalidArgument, a
        ValueError, unless it is square and symmetric."""
        n = len(rows)
        mat = [[Fraction(x) for x in row] for row in rows]
        if any(len(row) != n for row in mat):
            raise InvalidArgument("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise InvalidArgument(f"matrix is not symmetric at ({i},{j})")
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
            raise InvalidArgument("inner product scale must be nonzero")
        return InnerProduct(
            self.indices, tuple((ij, c * v) for ij, v in self.entries)
        )

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j), _ in self.entries)

    def _rows(self, sub: Sequence[int]) -> list[list[Fraction]]:
        """The dense matrix restricted to the indices ``sub``, in that order."""
        return [[self.entry(i, j) for j in sub] for i in sub]

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: with no row swap the pivots are the ratios of
        successive leading principal minors; a zero pivot forces a swap."""
        pivots, swaps = _eliminate(self._rows(self.indices))
        return swaps == 0 and all(p > 0 for p in pivots)

    def det(self) -> Fraction:
        """The determinant of the dense matrix of the active set."""
        pivots, swaps = _eliminate(self._rows(self.indices))
        return math.prod(pivots, start=Fraction(-1 if swaps % 2 else 1))

    def solve(self, sub: Sequence[int], rhs: Sequence[Fraction]) -> list[Fraction]:
        """Solve (the matrix restricted to ``sub``) x = rhs exactly.

        Raises SingularGram when the restricted matrix is singular; for the
        Gram matrix of a properly decorated forest this cannot happen.
        """
        n = len(sub)
        a = [row + [b] for row, b in zip(self._rows(sub), rhs)]
        if 0 in _eliminate(a)[0]:
            raise SingularGram("Gram subsystem is singular")
        x: list[Fraction] = [Fraction(0)] * n
        for i in reversed(range(n)):
            row = a[i]
            x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
        return x


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


def inner(Q: InnerProduct, a: LinearForm, b: LinearForm) -> Fraction:
    """The bilinear value Q(a, b)."""
    active = Q._active
    for lf in (a, b):
        for i, _ in lf.items:  # sorted: the first index outside is the least
            if i not in active:
                raise IndexOutOfRange(
                    f"index {i} outside the active set of the inner product"
                )
    total = _ZERO
    for i, ca in a.items:
        for j, cb in b.items:
            q = Q.entry(i, j)
            if q != 0:
                total += ca * cb * q
    return total


def is_independent(Q: InnerProduct, a: LinearForm, b: LinearForm) -> bool:
    """True iff a and b are Q-orthogonal (the locality relation)."""
    return inner(Q, a, b) == 0
