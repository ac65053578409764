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
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .errors import NotDivisible, VariableMismatch
from .pairing import Frozen

if TYPE_CHECKING:  # mpmath loads on the first evalf, never to render
    import mpmath

Rational = Union[Fraction, int]
VertexId = int
ExpVec = tuple[int, ...]


class PiPoly(Frozen):
    """A polynomial in the formal symbol Pi = pi^2 with rational coefficients.

    ``coeffs[k]`` is the coefficient of Pi^k; the tuple carries no trailing
    zeros, so the zero polynomial is the empty tuple.
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    # written out: values are compared and hashed in the hot loops
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

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
        while out and out[-1] == 0:
            out.pop()
        return PiPoly(tuple(out))

    def scaled(self, c: Rational) -> "PiPoly":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c == 0:
            return ZERO_PIPOLY
        return PiPoly(tuple(c * x for x in self.coeffs))

    def evalf(self, dps: int = 30) -> mpmath.mpf:
        """Numeric value with pi^2 evaluated at the stated precision.

        An mpmath ``mpf`` for library users; rendering does not use it
        (:meth:`numeric_str` is computed with ints and loads no mpmath).
        """
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

    def numeric_str(self, digits: int = 17) -> str:
        """The value to ``digits`` significant digits, computed with ints.

        The layout is that of ``mpmath.nstr(self.evalf(30), digits)``:
        rounded half up on the absolute value, fixed notation when
        min(-(digits // 3), -5) < exponent < digits and ``e+N``/``e-N``
        otherwise, trailing zeros stripped down to ``.0``.  pi is bounded by
        ints, at twice the precision until both ends of the value's interval
        round alike; a rational is rounded exactly.  The digits are thus
        correctly rounded, and they are mpmath's unless its 30-digit binary
        evaluation lands across a rounding boundary: under cancellation
        beyond 30 digits, or at a decimal tie that is no binary fraction
        (3/20 to 1 digit is 0.2 here, 0.1 in mpmath).
        """
        if digits < 1:
            raise ValueError(f"digits must be at least 1, not {digits}")
        if self.is_zero():
            return "0.0"
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        top = len(nums) - 1
        bits = 64 + 4 * digits  # 4 > log2(10) bits a digit: one pass, mostly
        while True:  # a rational has low == high and ends in one pass
            lo, hi = _pi_bounds(bits)
            low = high = 0
            for k, a in enumerate(nums):
                if a:
                    shift = 2 * bits * (top - k)
                    low += a * (lo if a > 0 else hi) ** (2 * k) << shift
                    high += a * (hi if a > 0 else lo) ** (2 * k) << shift
            if low > 0 or high < 0:
                sign = "" if low > 0 else "-"
                low, high = sorted((abs(low), abs(high)))
                q = den << 2 * bits * top
                rounded = _round_sig(low, q, digits)
                if rounded == _round_sig(high, q, digits):
                    return _layout(sign, *rounded, digits)
            bits *= 2


def _render_pi_term(c: Fraction, power: int) -> str:
    """One monomial c * pi^(2*power) in the canonical output syntax."""
    p, q = _digits(c.numerator), _digits(c.denominator)
    if power:
        sym = f"pi^{2 * power}"
        p = {"1": sym, "-1": f"-{sym}"}.get(p, f"{p}*{sym}")
    return p if q == "1" else f"{p}/{q}"


# str() takes at most sys.get_int_max_str_digits() digits, never below 640
_PIECE = 10**600
_LOG10_2 = math.log10(2)


def _digits(i: int) -> str:
    """The decimal digits of an int of any size, converted piece by piece."""
    sign, i = ("-", -i) if i < 0 else ("", i)
    pieces = []
    while i >= _PIECE:
        i, low = divmod(i, _PIECE)
        pieces.append(f"{low:0600d}")
    return sign + str(i) + "".join(reversed(pieces))


@lru_cache(maxsize=16)
def _pi_bounds(bits: int) -> tuple[int, int]:
    """Ints lo < hi with lo <= pi * 2**bits <= hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in fixed point with 32 guard bits."""
    one = 1 << (bits + 32)
    total = err = 0
    for weight, x in ((16, 5), (-4, 239)):
        # each floored term errs by less than 1, and so does the tail
        power, k, s = one // x, 0, 0
        while power:
            s += -(power // (2 * k + 1)) if k % 2 else power // (2 * k + 1)
            power //= x * x
            k += 1
        total += weight * s
        err += abs(weight) * (k + 1)
    return (total - err) >> 32, ((total + err) >> 32) + 1


def _round_sig(p: int, q: int, digits: int) -> tuple[int, int]:
    """p/q > 0 rounded half up to ``digits`` significant digits: the digit
    int n and decimal exponent e with p/q ~ n * 10**(e - digits + 1)."""
    e = math.floor((p.bit_length() - q.bit_length()) * _LOG10_2)
    while True:
        s = digits - 1 - e
        num, den = (p * 10**s, q) if s >= 0 else (p, q * 10**-s)
        n, r = divmod(num, den)
        if n >= 10**digits:
            e += 1
        elif n < 10 ** (digits - 1):
            e -= 1
        else:
            break
    if 2 * r >= den:
        n += 1
        if n == 10**digits:
            n, e = n // 10, e + 1
    return n, e


def _layout(sign: str, n: int, e: int, digits: int) -> str:
    """The digit int n at decimal exponent e as mpmath's ``to_str`` lays it
    out."""
    text = _digits(n)
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            text = "0" * -e + text
        split, e = max(e, 0) + 1, 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if e == 0:
        return sign + text
    return f"{sign}{text}e{e:+d}"


ZERO_PIPOLY = PiPoly(())
ONE_PIPOLY = PiPoly.const(1)


class TruncSeries(Frozen):
    """A multivariate power series truncated at a total degree.

    ``variables`` fixes the slot order of the exponent vectors; ``terms`` maps
    exponent vectors (total degree <= ``trunc``) to nonzero PiPoly
    coefficients.  Values are immutable by convention: the ``terms`` dict is
    never mutated after construction, and the hash leaves it out.
    """

    __slots__ = _fields = ("variables", "trunc", "terms")
    variables: tuple[VertexId, ...]
    trunc: int
    terms: Mapping[ExpVec, PiPoly]

    def __init__(
        self,
        variables: tuple[VertexId, ...],
        trunc: int,
        terms: Mapping[ExpVec, PiPoly],
    ) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", terms)

    # written out: the hash skips ``terms``, and series are compared in the
    # reference's hot loops
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.trunc == other.trunc
                and self.variables == other.variables
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.variables, self.trunc))

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
        variables = tuple(variables)
        zero_ev = (0,) * len(variables)
        return TruncSeries.make(variables, trunc, {zero_ev: ONE_PIPOLY})

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

    def subst_linear(
        self, assignment: Mapping[VertexId, Mapping[VertexId, Rational]]
    ) -> "TruncSeries":
        """Substitute homogeneous linear images for some variables.

        ``assignment[w]`` is the linear combination replacing z_w, given as a
        map from variable id to rational coefficient; absent variables are
        left alone.  Truncation is preserved: a linear substitution maps a
        degree-d monomial to a homogeneous degree-d polynomial (or kills it).
        Each term goes through :meth:`LinearImages.image`, the one
        substitution routine, and the images are summed.
        """
        pos = {v: k for k, v in enumerate(self.variables)}
        for w, image in assignment.items():
            if w not in pos:
                raise VariableMismatch(f"substituted variable {w} not in series")
            for u in image:
                if u not in pos:
                    raise VariableMismatch(f"image variable {u} not in series")
        images = LinearImages(
            len(self.variables), max(map(sum, self.terms), default=0)
        )
        for w, image in assignment.items():
            coeffs = {pos[u]: Fraction(c) for u, c in image.items()}
            den = math.lcm(*(c.denominator for c in coeffs.values()))
            images.set(pos[w], {
                k: c.numerator * (den // c.denominator)
                for k, c in coeffs.items()
            }, den)
        out: dict[ExpVec, PiPoly] = {}
        for ev, coef in self.terms.items():
            den = images.den(ev)
            for key, x in images.image(ev).items():
                exps = images.exps(key)
                piece = coef.scaled(Fraction(x, den))
                prev = out.get(exps)
                out[exps] = piece if prev is None else prev + piece
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


class LinearImages:
    """Linear images of the n slots of a series, substituted one monomial at
    a time.

    Slot k's image is sum_j form[j] z_j / ``dens[k]`` with int coefficients;
    every slot starts as its own variable z_k.  A monomial is one int, slot
    k's exponent in the ``width`` bits from k * ``width`` up, so multiplying
    monomials adds their keys.  A homogeneous linear image keeps every
    exponent of a monomial's image at most the monomial's degree, which the
    ``degree`` given at construction bounds and ``width`` holds.  The powers
    of each slot's image are kept, and extended as monomials need them, until
    :meth:`set` replaces that image.
    """

    def __init__(self, n: int, degree: int) -> None:
        self.width = max(degree, 1).bit_length()
        self.unit = [1 << k * self.width for k in range(n)]
        self.dens = [1] * n
        self.powers = [[{0: 1}, {u: 1}] for u in self.unit]

    def set(self, k: int, form: Mapping[int, int], den: int) -> None:
        """Make slot k's image sum_j form[j] z_j / den."""
        self.dens[k] = den
        unit = self.unit
        self.powers[k] = [{0: 1}, {unit[j]: c for j, c in form.items() if c}]

    def image(self, exps: ExpVec) -> dict[int, int]:
        """The image of the monomial prod_k z_k^exps[k], as int coefficients
        over :meth:`den` by packed monomial; empty when it vanishes.  The
        result may be a kept power: callers must not change it."""
        prod = None
        for k, e in enumerate(exps):
            if e:
                plist = self.powers[k]
                while len(plist) <= e:
                    plist.append(_poly_mul(plist[-1], plist[1]))
                prod = plist[e] if prod is None else _poly_mul(prod, plist[e])
                if not prod:
                    break
        return {0: 1} if prod is None else prod

    def den(self, exps: ExpVec) -> int:
        """The denominator of :meth:`image`: prod_k dens[k]^exps[k]."""
        return math.prod(d**e for d, e in zip(self.dens, exps) if e)

    def exps(self, key: int) -> ExpVec:
        """The exponent vector of a packed monomial."""
        width = self.width
        mask = (1 << width) - 1
        return tuple(key >> k * width & mask for k in range(len(self.unit)))


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two polynomials keyed by packed monomial."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


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
