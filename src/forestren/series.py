"""Exact truncated multivariate power series over Q[pi^2].

The coefficient ring treats pi^2 as a formal symbol (written ``pi^2`` in
rendered output), so every value produced by the pipeline is an exact
polynomial in pi^2 with rational coefficients.  Total-degree truncation makes
the ring operations finite; arithmetic closes at the minimum truncation of
the operands.

The module also provides the Laurent data of the cosecant: the holomorphic
part h of pi/sin(pi x) = 1/x + h(x), computed by exact power-series inversion
of sin(pi x)/(pi x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .errors import NotDivisible, VariableMismatch

if TYPE_CHECKING:  # mpmath loads on the first numeric evaluation
    import mpmath

Rational = Union[Fraction, int]
VertexId = int
ExpVec = tuple[int, ...]


@dataclass(frozen=True)
class PiPoly:
    """A polynomial in the formal symbol Pi = pi^2 with rational coefficients.

    ``coeffs[k]`` is the coefficient of Pi^k; the tuple carries no trailing
    zeros, so the zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Sequence[Rational]) -> "PiPoly":
        vals = [Fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return PiPoly(tuple(vals))

    @staticmethod
    def const(c: Rational) -> "PiPoly":
        return PiPoly.from_coeffs([c])

    @staticmethod
    def pi2(power: int = 1, coeff: Rational = 1) -> "PiPoly":
        """coeff * Pi^power."""
        return PiPoly.from_coeffs([0] * power + [coeff])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PiPoly") -> "PiPoly":
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        out = list(long)
        for k, c in enumerate(short):
            out[k] += c
        while out and out[-1] == 0:
            out.pop()
        return PiPoly(tuple(out))

    def __neg__(self) -> "PiPoly":
        return PiPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        return self + (-other)

    def __mul__(self, other: "PiPoly") -> "PiPoly":
        if self.is_zero() or other.is_zero():
            return ZERO_PIPOLY
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return PiPoly.from_coeffs(out)

    def scaled(self, c: Rational) -> "PiPoly":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c == 0:
            return ZERO_PIPOLY
        return PiPoly(tuple(c * x for x in self.coeffs))

    def evalf(self, dps: int = 30) -> mpmath.mpf:
        """Numeric value with pi^2 evaluated at the stated precision."""
        import mpmath

        with mpmath.workdps(dps):
            pi2 = mpmath.pi ** 2
            total = mpmath.mpf(0)
            for k, c in enumerate(self.coeffs):
                total += mpmath.mpf(c.numerator) / c.denominator * pi2 ** k
            return total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = _render_pi_term(c, k)
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)


def _render_pi_term(c: Fraction, power: int) -> str:
    """One monomial c * pi^(2*power) in the canonical output syntax."""
    if power == 0:
        return str(c)
    sym = f"pi^{2 * power}"
    p, q = c.numerator, c.denominator
    if p == 1:
        head = sym
    elif p == -1:
        head = f"-{sym}"
    else:
        head = f"{p}*{sym}"
    return head if q == 1 else f"{head}/{q}"


ZERO_PIPOLY = PiPoly(())
ONE_PIPOLY = PiPoly.const(1)


@dataclass(frozen=True)
class TruncSeries:
    """A multivariate power series truncated at a total degree.

    ``variables`` fixes the slot order of the exponent vectors; ``terms`` maps
    exponent vectors (total degree <= ``trunc``) to nonzero PiPoly
    coefficients.  Values are immutable by convention: the ``terms`` dict is
    never mutated after construction.
    """

    variables: tuple[VertexId, ...]
    trunc: int
    terms: Mapping[ExpVec, PiPoly] = field(hash=False)

    @staticmethod
    def make(
        variables: Sequence[VertexId],
        trunc: int,
        terms: Mapping[ExpVec, PiPoly],
    ) -> "TruncSeries":
        variables = tuple(variables)
        kept = {
            ev: c
            for ev, c in terms.items()
            if sum(ev) <= trunc and not c.is_zero()
        }
        return TruncSeries(variables, trunc, kept)

    @staticmethod
    def zero(variables: Sequence[VertexId], trunc: int) -> "TruncSeries":
        return TruncSeries(tuple(variables), trunc, {})

    @staticmethod
    def one(variables: Sequence[VertexId], trunc: int) -> "TruncSeries":
        return TruncSeries.from_const(variables, trunc, ONE_PIPOLY)

    @staticmethod
    def from_const(
        variables: Sequence[VertexId], trunc: int, c: Union[PiPoly, Rational]
    ) -> "TruncSeries":
        if not isinstance(c, PiPoly):
            c = PiPoly.const(c)
        variables = tuple(variables)
        zero_ev = (0,) * len(variables)
        return TruncSeries.make(variables, trunc, {zero_ev: c})

    @staticmethod
    def var(
        variables: Sequence[VertexId], trunc: int, v: VertexId
    ) -> "TruncSeries":
        variables = tuple(variables)
        ev = tuple(1 if u == v else 0 for u in variables)
        if sum(ev) != 1:
            raise VariableMismatch(f"variable {v} not among {variables}")
        return TruncSeries.make(variables, trunc, {ev: ONE_PIPOLY})

    def _require_same_variables(self, other: "TruncSeries") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"series variables differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_same_variables(other)
        trunc = min(self.trunc, other.trunc)
        out: dict[ExpVec, PiPoly] = dict(self.terms)
        for ev, c in other.terms.items():
            prev = out.get(ev)
            out[ev] = c if prev is None else prev + c
        return TruncSeries.make(self.variables, trunc, out)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(
            self.variables, self.trunc, {ev: -c for ev, c in self.terms.items()}
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_same_variables(other)
        trunc = min(self.trunc, other.trunc)
        out: dict[ExpVec, PiPoly] = {}
        for ev1, c1 in self.terms.items():
            d1 = sum(ev1)
            if d1 > trunc:
                continue
            for ev2, c2 in other.terms.items():
                if d1 + sum(ev2) > trunc:
                    continue
                ev = tuple(a + b for a, b in zip(ev1, ev2))
                prod = c1 * c2
                prev = out.get(ev)
                out[ev] = prod if prev is None else prev + prod
        return TruncSeries.make(self.variables, trunc, out)

    def scaled(self, c: Union[PiPoly, Rational]) -> "TruncSeries":
        if not isinstance(c, PiPoly):
            c = PiPoly.const(c)
        return TruncSeries.make(
            self.variables,
            self.trunc,
            {ev: coef * c for ev, coef in self.terms.items()},
        )

    def truncated(self, trunc: int) -> "TruncSeries":
        """Drop terms of total degree above ``trunc`` and lower the bound."""
        if trunc >= self.trunc:
            return TruncSeries(self.variables, trunc, dict(self.terms))
        return TruncSeries.make(self.variables, trunc, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def eval0(self) -> PiPoly:
        """The constant term."""
        zero_ev = (0,) * len(self.variables)
        return self.terms.get(zero_ev, ZERO_PIPOLY)

    def occurring(self) -> frozenset[VertexId]:
        """Variables that actually appear with positive exponent."""
        used = [False] * len(self.variables)
        for ev in self.terms:
            for k, e in enumerate(ev):
                if e:
                    used[k] = True
        return frozenset(v for k, v in enumerate(self.variables) if used[k])

    def canonical_key(self) -> tuple:
        """Hashable content key (used for memoization)."""
        items = tuple(
            sorted((ev, c.coeffs) for ev, c in self.terms.items())
        )
        return (self.variables, self.trunc, items)

    def subst_linear(
        self, assignment: Mapping[VertexId, Mapping[VertexId, Rational]]
    ) -> "TruncSeries":
        """Substitute homogeneous linear images for some variables.

        ``assignment[w]`` is the linear combination replacing z_w, given as a
        map from variable id to rational coefficient; absent variables are
        left alone.  Truncation is preserved: a linear substitution maps a
        degree-d monomial to a homogeneous degree-d polynomial (or kills it).
        """
        pos = {v: k for k, v in enumerate(self.variables)}
        n = len(self.variables)
        for w, image in assignment.items():
            if w not in pos:
                raise VariableMismatch(f"substituted variable {w} not in series")
            for u in image:
                if u not in pos:
                    raise VariableMismatch(f"image variable {u} not in series")

        base: dict[VertexId, dict[ExpVec, Fraction]] = {}
        for w, image in assignment.items():
            poly: dict[ExpVec, Fraction] = {}
            for u, c in image.items():
                c = Fraction(c)
                if c == 0:
                    continue
                ev = [0] * n
                ev[pos[u]] = 1
                key = tuple(ev)
                poly[key] = poly.get(key, Fraction(0)) + c
            base[w] = {ev: c for ev, c in poly.items() if c != 0}

        powers: dict[VertexId, list[dict[ExpVec, Fraction]]] = {
            w: [{(0,) * n: Fraction(1)}, p] for w, p in base.items()
        }

        def power_of(w: VertexId, k: int) -> dict[ExpVec, Fraction]:
            plist = powers[w]
            while len(plist) <= k:
                plist.append(
                    _frac_poly_mul(plist[-1], plist[1], self.trunc)
                )
            return plist[k]

        out: dict[ExpVec, PiPoly] = {}
        for ev, coef in self.terms.items():
            # Fixed (unsubstituted) slots contribute a plain monomial shift.
            shift = [0] * n
            prod: dict[ExpVec, Fraction] = {(0,) * n: Fraction(1)}
            for k, e in enumerate(ev):
                if e == 0:
                    continue
                w = self.variables[k]
                if w in base:
                    prod = _frac_poly_mul(prod, power_of(w, e), self.trunc)
                    if not prod:
                        break
                else:
                    shift[k] = e
            if not prod:
                continue
            shift_t = tuple(shift)
            shift_deg = sum(shift_t)
            for pev, pc in prod.items():
                if sum(pev) + shift_deg > self.trunc:
                    continue
                key = tuple(a + b for a, b in zip(pev, shift_t))
                piece = coef.scaled(pc)
                prev = out.get(key)
                out[key] = piece if prev is None else prev + piece
        return TruncSeries.make(self.variables, self.trunc, out)

    def div_by_var(self, v: VertexId) -> "TruncSeries":
        """Exact division by z_v; every term must contain z_v."""
        pos = {u: k for k, u in enumerate(self.variables)}
        if v not in pos:
            raise VariableMismatch(f"variable {v} not in series")
        k = pos[v]
        out: dict[ExpVec, PiPoly] = {}
        for ev, c in self.terms.items():
            if ev[k] == 0:
                raise NotDivisible(
                    f"term with exponent {ev} has no factor z_{v}"
                )
            out[ev[:k] + (ev[k] - 1,) + ev[k + 1:]] = c
        return TruncSeries(self.variables, self.trunc - 1, out)

    def mul_by_var(self, v: VertexId) -> "TruncSeries":
        """Multiply by z_v, raising the truncation bound by one."""
        pos = {u: k for k, u in enumerate(self.variables)}
        if v not in pos:
            raise VariableMismatch(f"variable {v} not in series")
        k = pos[v]
        out = {
            ev[:k] + (ev[k] + 1,) + ev[k + 1:]: c for ev, c in self.terms.items()
        }
        return TruncSeries(self.variables, self.trunc + 1, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ev in sorted(self.terms, key=lambda e: (sum(e), e)):
            coef = self.terms[ev]
            mono = "*".join(
                f"z{k}" if e == 1 else f"z{k}^{e}"
                for k, e in enumerate(ev)
                if e
            )
            cstr = str(coef)
            if mono:
                if cstr == "1":
                    parts.append(mono)
                else:
                    if " " in cstr or cstr.startswith("-"):
                        cstr = f"({cstr})"
                    parts.append(f"{cstr}*{mono}")
            else:
                parts.append(cstr)
        return " + ".join(parts)


def _frac_poly_mul(
    a: dict[ExpVec, Fraction], b: dict[ExpVec, Fraction], trunc: int
) -> dict[ExpVec, Fraction]:
    out: dict[ExpVec, Fraction] = {}
    for ev1, c1 in a.items():
        d1 = sum(ev1)
        for ev2, c2 in b.items():
            if d1 + sum(ev2) > trunc:
                continue
            key = tuple(x + y for x, y in zip(ev1, ev2))
            prev = out.get(key)
            val = c1 * c2 if prev is None else prev + c1 * c2
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


@lru_cache(maxsize=None)
def sinc_coeffs(count: int) -> tuple[Fraction, ...]:
    """Rational coefficients s_m with sin(pi x)/(pi x) = sum s_m Pi^m x^(2m)."""
    return tuple(
        Fraction((-1) ** m, math.factorial(2 * m + 1)) for m in range(count)
    )


@lru_cache(maxsize=None)
def sinc_inverse_coeffs(count: int) -> tuple[Fraction, ...]:
    """Rational coefficients u_m with pi x/sin(pi x) = sum u_m Pi^m x^(2m).

    Computed by inverting the sinc series term by term; the product check
    sum_k s_k u_(m-k) = [m == 0] is a unit test, not an assumption.
    """
    s = sinc_coeffs(count)
    u: list[Fraction] = [Fraction(1)]
    for m in range(1, count):
        u.append(-sum(s[k] * u[m - k] for k in range(1, m + 1)))
    return tuple(u)


def numerator_slice(variables: Sequence[VertexId], n: int) -> TruncSeries:
    """The total-degree-n terms of prod_v (1 + z_v h(z_v)), truncated at n.

    z h(z) = pi z/sin(pi z) - 1 is even, so each factor is
    sum_m u_m Pi^m z_v^(2m) with u = :func:`sinc_inverse_coeffs`, and the
    slice is Pi^(n/2) * sum over m_v >= 0 with sum_v m_v = n/2 of
    prod_v u_(m_v) z_v^(2 m_v).  It is zero for odd n.  The terms are built
    directly, without expanding the product at any other degree.
    """
    variables = tuple(variables)
    if n % 2:
        return TruncSeries.zero(variables, n)
    half = n // 2
    u = sinc_inverse_coeffs(half + 1)
    # (exponents over a prefix of the slots, what they leave of n/2,
    # prod of their u_m); every u_m is nonzero and u_0 = 1
    partial = [((), half, Fraction(1))]
    for _ in variables:
        partial = [
            (ev + (2 * m,), left - m, c * u[m] if m else c)
            for ev, left, c in partial
            for m in range(left + 1)
        ]
    pad = (Fraction(0),) * half
    terms = {ev: PiPoly(pad + (c,)) for ev, left, c in partial if not left}
    return TruncSeries(variables, n, terms)


def h_series(
    v: VertexId,
    N: int,
    variables: Optional[Sequence[VertexId]] = None,
) -> TruncSeries:
    """Taylor expansion of h(z_v) to total degree N, where
    pi/sin(pi x) = 1/x + h(x).

    Only odd degrees occur, and the degree-(2m-1) coefficient is a rational
    multiple of Pi^m.  ``variables`` embeds the result into a larger variable
    set (default: just ``(v,)``).
    """
    if N < 1:
        raise ValueError("h_series needs N >= 1")
    if variables is None:
        variables = (v,)
    variables = tuple(variables)
    if v not in variables:
        raise VariableMismatch(f"variable {v} not among {variables}")
    pos = variables.index(v)
    n = len(variables)
    m_max = (N + 1) // 2
    u = sinc_inverse_coeffs(m_max + 1)
    terms: dict[ExpVec, PiPoly] = {}
    for m in range(1, m_max + 1):
        deg = 2 * m - 1
        if deg > N:
            continue
        ev = [0] * n
        ev[pos] = deg
        terms[tuple(ev)] = PiPoly.pi2(power=m, coeff=u[m])
    return TruncSeries(variables, N, terms)
