"""Exact polynomials in pi^2 with rational coefficients, and their rendering.

The coefficient ring of every value the pipeline produces treats pi^2 as a
formal symbol (written ``pi^2`` in rendered output): a :class:`PiPoly` is an
exact polynomial in pi^2 with rational coefficients.  It renders exactly,
and to a fixed number of significant digits with int arithmetic alone.

The module also provides the Laurent data of the cosecant: the coefficients
of pi x/sin(pi x), computed by exact power-series inversion of
sin(pi x)/(pi x), from which the holomorphic part h of
pi/sin(pi x) = 1/x + h(x) follows.  The truncated multivariate series in
which the telescoping reference expands h are that reference's own, in
:mod:`forestren.projector`; the fast path never builds one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence, Union

from .errors import InvalidArgument
from .pairing import Frozen

if TYPE_CHECKING:  # mpmath loads on the first evalf, never to render
    import mpmath

Rational = Union[Fraction, int]
VertexId = int


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
            raise InvalidArgument(f"digits must be at least 1, not {digits}")
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
