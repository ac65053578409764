"""Rational linear forms, inner products, and Gram matrices of subtree sums.

Everything in this module is exact: coefficients are `fractions.Fraction`,
and all predicates (orthogonality, proper decoration, positive definiteness)
are decided by exact arithmetic.  The independence relation used throughout
the package is Q-orthogonality of linear forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .errors import (
    IndexOutOfRange,
    NonPositiveWeight,
    NotProperlyDecorated,
    SingularGram,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from .forest import DecoratedForest, DecoratedTree, VertexId

Rational = Union[Fraction, int]


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
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "LinearForm") -> "LinearForm":
        coeffs: dict[int, Fraction] = dict(self.items)
        for i, c in other.items:
            coeffs[i] = coeffs.get(i, Fraction(0)) + c
        return LinearForm.from_coeffs(coeffs)

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
        return self._table.get((i, j), Fraction(0))

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
        idx = list(self.indices)
        n = len(idx)
        mat = [[self.entry(idx[i], idx[j]) for j in range(n)] for i in range(n)]
        return _leading_minors_positive(mat)


def _leading_minors_positive(mat: list[list[Fraction]]) -> bool:
    # Gaussian elimination without row swaps: the pivots are the ratios of
    # successive leading principal minors, so all pivots > 0 iff all minors > 0.
    n = len(mat)
    work = [row[:] for row in mat]
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return True


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


def check_properly_decorated(forest: "DecoratedForest", Q: InnerProduct) -> bool:
    """True iff all vertex decorations are nonzero and pairwise Q-orthogonal."""
    decos = [t.decoration for t in _iter_vertices(forest)]
    if any(d.is_zero() for d in decos):
        return False
    for i in range(len(decos)):
        for j in range(i + 1, len(decos)):
            if not is_independent(Q, decos[i], decos[j]):
                return False
    return True


def _iter_vertices(forest: "DecoratedForest") -> Iterable["DecoratedTree"]:
    stack = list(forest.trees)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _subtree_vertex_sets(
    forest: "DecoratedForest",
) -> dict["VertexId", frozenset["VertexId"]]:
    out: dict["VertexId", frozenset["VertexId"]] = {}

    def walk(node: "DecoratedTree") -> frozenset["VertexId"]:
        acc: frozenset["VertexId"] = frozenset((node.root_id,))
        for child in node.children:
            acc |= walk(child)
        out[node.root_id] = acc
        return acc

    for tree in forest.trees:
        walk(tree)
    return out


@dataclass(frozen=True)
class GramMatrix:
    """The symmetric matrix Q(L_v, L_w) over the vertices of one forest.

    ``vertices`` is sorted; ``rows`` is dense.  Positive definiteness is
    guaranteed for properly decorated forests with positive weights, and the
    exact solver below raises :class:`SingularGram` otherwise.
    """

    vertices: tuple["VertexId", ...]
    rows: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def _pos(self) -> dict["VertexId", int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def entry(self, v: "VertexId", w: "VertexId") -> Fraction:
        return self.rows[self._pos[v]][self._pos[w]]

    def scaled(self, c: Rational) -> "GramMatrix":
        c = Fraction(c)
        return GramMatrix(
            self.vertices, tuple(tuple(c * x for x in row) for row in self.rows)
        )

    def det(self) -> Fraction:
        n = len(self.vertices)
        work = [list(row) for row in self.rows]
        sign = 1
        det = Fraction(1)
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if work[i][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
                sign = -sign
            pivot = work[k][k]
            det *= pivot
            for i in range(k + 1, n):
                factor = work[i][k] / pivot
                if factor == 0:
                    continue
                for j in range(k, n):
                    work[i][j] -= factor * work[k][j]
        return sign * det

    def is_positive_definite(self) -> bool:
        mat = [list(row) for row in self.rows]
        return _leading_minors_positive(mat)

    def solve(
        self, sub: Sequence["VertexId"], rhs: Sequence[Fraction]
    ) -> list[Fraction]:
        """Solve (Gram restricted to ``sub``) x = rhs exactly.

        Raises SingularGram when the restricted matrix is singular; for
        properly decorated input this cannot happen.
        """
        n = len(sub)
        a = [[self.entry(v, w) for w in sub] + [rhs[i]] for i, v in enumerate(sub)]
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot_row is None:
                raise SingularGram("Gram subsystem is singular")
            a[k], a[pivot_row] = a[pivot_row], a[k]
            pivot = a[k][k]
            for i in range(n):
                if i == k or a[i][k] == 0:
                    continue
                factor = a[i][k] / pivot
                for j in range(k, n + 1):
                    a[i][j] -= factor * a[k][j]
        return [a[i][n] / a[i][i] for i in range(n)]


def gram(forest: "DecoratedForest", Q: InnerProduct) -> GramMatrix:
    """Gram matrix of the subtree sums L_v, via the overlap formula.

    For a properly decorated forest, Q(L_v, L_w) is the sum of the
    self-pairings q_u = Q(d(u), d(u)) over the vertices u common to the two
    maximal subtrees: cross terms vanish by orthogonality, and two subtree
    vertex sets are either nested or disjoint.
    """
    if not check_properly_decorated(forest, Q):
        raise NotProperlyDecorated(
            "gram matrix requires pairwise orthogonal nonzero decorations"
        )
    return overlap_gram(forest, vertex_weights(forest, Q))


def vertex_weights(
    forest: "DecoratedForest", Q: InnerProduct
) -> dict["VertexId", Fraction]:
    """The self-pairings q_v = Q(d(v), d(v)); raises NonPositiveWeight."""
    weights: dict["VertexId", Fraction] = {}
    for node in _iter_vertices(forest):
        q = inner(Q, node.decoration, node.decoration)
        if q <= 0:
            raise NonPositiveWeight(
                f"vertex {node.root_id} has non-positive weight {q}"
            )
        weights[node.root_id] = q
    return weights


def overlap_gram(
    forest: "DecoratedForest", weights: Mapping["VertexId", Fraction]
) -> GramMatrix:
    """The overlap formula of :func:`gram`, without its validation.

    The caller guarantees that ``forest`` is properly decorated and that
    ``weights`` holds the self-pairing of each of its vertices (extra
    entries are ignored), so the validation of a whole forest can serve
    the Gram matrix of each of its trees.
    """
    sets = _subtree_vertex_sets(forest)
    vertices = tuple(sorted(sets))
    rows = tuple(
        tuple(
            sum((weights[u] for u in sets[v] & sets[w]), Fraction(0))
            for w in vertices
        )
        for v in vertices
    )
    return GramMatrix(vertices, rows)


def gram_from_inner(forest: "DecoratedForest", Q: InnerProduct) -> GramMatrix:
    """Gram matrix computed the direct way: Q applied to explicit subtree sums.

    Independent cross-check route for :func:`gram`; the two must agree on
    every properly decorated forest.
    """
    sets = _subtree_vertex_sets(forest)
    deco: dict["VertexId", LinearForm] = {
        node.root_id: node.decoration for node in _iter_vertices(forest)
    }
    sums: dict["VertexId", LinearForm] = {}
    for v, vs in sets.items():
        acc = ZERO_FORM
        for u in vs:
            acc = acc + deco[u]
        sums[v] = acc
    vertices = tuple(sorted(sets))
    rows = tuple(
        tuple(inner(Q, sums[v], sums[w]) for w in vertices) for v in vertices
    )
    return GramMatrix(vertices, rows)
