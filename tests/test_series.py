import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from forestren import (
    NotDivisible,
    PiPoly,
    TruncSeries,
    VariableMismatch,
    h_series,
    parse_forest,
    renormalize,
)
from forestren.series import (
    ONE_PIPOLY,
    ZERO_PIPOLY,
    _pi_bounds,
    sinc_coeffs,
    sinc_inverse_coeffs,
)


rationals = strat.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def pipolys():
    return strat.lists(rationals, max_size=3).map(PiPoly.from_coeffs)


def series(variables=(0, 1), trunc=3):
    nvars = len(variables)
    exps = strat.tuples(*([strat.integers(0, trunc)] * nvars)).filter(
        lambda ev: sum(ev) <= trunc
    )
    return strat.dictionaries(exps, pipolys(), max_size=5).map(
        lambda terms: TruncSeries.make(variables, trunc, terms)
    )


# ---------------------------------------------------------------------------
# Frozen Laurent data.  pi/sin(pi z) = 1/z + h(z); h has odd degrees only and
# its z^(2m-1) coefficient is u_m * Pi^m with u_1..u_4 as below.
# ---------------------------------------------------------------------------


def test_sinc_inverse_leading_coefficients():
    u = sinc_inverse_coeffs(5)
    assert u[0] == 1
    assert u[1] == Fraction(1, 6)
    assert u[2] == Fraction(7, 360)
    assert u[3] == Fraction(31, 15120)
    assert u[4] == Fraction(127, 604800)


def test_sinc_series_inverts_exactly():
    # Convolving the sinc coefficients with their inverse gives delta_0.
    s = sinc_coeffs(6)
    u = sinc_inverse_coeffs(6)
    for m in range(6):
        conv = sum(s[k] * u[m - k] for k in range(m + 1))
        assert conv == (1 if m == 0 else 0)


def test_h_series_odd_degrees_and_pi_grading():
    h = h_series(0, 8, variables=(0,))
    for (e,), coeff in h.terms.items():
        assert e % 2 == 1
        m = (e + 1) // 2
        # coefficient is a rational multiple of Pi^m exactly
        assert len(coeff.coeffs) == m + 1
        assert all(c == 0 for c in coeff.coeffs[:m])
    assert h.terms[(1,)].coeffs[1] == Fraction(1, 6)
    assert h.terms[(3,)].coeffs[2] == Fraction(7, 360)


def test_h_series_variable_embedding():
    h = h_series(1, 4, variables=(0, 1, 2))
    for ev in h.terms:
        assert ev[0] == 0 and ev[2] == 0


# ---------------------------------------------------------------------------
# PiPoly
# ---------------------------------------------------------------------------


class TestPiPoly:
    @hypothesis.given(pipolys(), pipolys(), pipolys())
    def test_ring_laws(self, a, b, c):
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert (a + b).coeffs == (b + a).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs

    @hypothesis.given(pipolys())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()
        assert (a - a).is_zero()

    @hypothesis.given(pipolys())
    def test_units(self, a):
        assert (a + ZERO_PIPOLY).coeffs == a.coeffs
        assert (a * ONE_PIPOLY).coeffs == a.coeffs

    def test_str_golden_forms(self):
        assert str(ZERO_PIPOLY) == "0"
        assert str(PiPoly.const(Fraction(1, 4))) == "1/4"
        assert str(PiPoly.pi2(1, Fraction(1, 4))) == "pi^2/4"
        assert str(PiPoly.pi2(1, Fraction(5, 18))) == "5*pi^2/18"
        assert str(PiPoly.pi2(1, -1)) == "-pi^2"
        assert str(PiPoly.pi2(2, Fraction(5, 32))) == "5*pi^4/32"
        assert (
            str(PiPoly.const(2) + PiPoly.pi2(1, Fraction(-1, 3)))
            == "2 - pi^2/3"
        )

    @pytest.mark.parametrize("digits", [599, 600, 601, 1200, 4299])
    def test_str_of_long_ints_matches_str(self, digits):
        # long ints are rendered in pieces; below str()'s digit limit the
        # pieces must join to exactly what str() prints
        for i in (10**digits - 1, 10**digits, 10**digits + 7, 3 * 10**600):
            for c in (Fraction(i), Fraction(-i, 7), Fraction(1, i)):
                assert str(PiPoly.const(c)) == str(c)
            c = Fraction(i, 7 * i + 1)
            assert str(PiPoly.pi2(1, c)) == f"{i}*pi^2/{7 * i + 1}"

    def test_evalf(self):
        import mpmath

        v = PiPoly.pi2(1, Fraction(1, 4)).evalf()
        with mpmath.workdps(30):
            assert abs(v - mpmath.pi**2 / 4) < mpmath.mpf("1e-25")


# ---------------------------------------------------------------------------
# PiPoly.numeric_str, the int renderer, against mpmath.nstr(evalf(30), d).
# The renderer rounds the exact value correctly.  mpmath rounds its 30-digit
# binary evaluation, so the two can differ only where that evaluation falls
# on the other side of a rounding boundary: cancellation beyond 30 digits, or
# a rational that is a decimal tie but no binary fraction (3/20 at 1 digit).
# No renormalize value hits either: each is a rational times one power of
# pi, and its only pure rationals are 0 and 1.
# ---------------------------------------------------------------------------

RENDER_DIGITS = (1, 3, 5, 17)


def reference_str(p, digits, dps=30):
    import mpmath

    return mpmath.nstr(p.evalf(dps), digits)


def random_coeff(rng, sign):
    """A rational of magnitude about 10**-300 to 10**300."""
    num = rng.randint(1, 10 ** rng.randint(1, 300))
    return Fraction(sign * num, rng.randint(1, 10 ** rng.randint(0, 300)))


class TestNumericStr:
    def test_single_powers_match_mpmath(self):
        rng = random.Random(21)
        for _ in range(600):
            power = rng.randint(0, 12)
            p = PiPoly.pi2(power, random_coeff(rng, rng.choice((1, -1))))
            for d in RENDER_DIGITS:
                assert p.numeric_str(d) == reference_str(p, d), (p, d)

    def test_sums_without_cancellation_match_mpmath(self):
        rng = random.Random(22)
        for _ in range(300):
            sign = rng.choice((1, -1))
            coeffs = [
                random_coeff(rng, sign) if rng.random() < 0.6 else 0
                for _ in range(rng.randint(1, 12))
            ] + [random_coeff(rng, sign)]
            p = PiPoly.from_coeffs(coeffs)
            for d in RENDER_DIGITS:
                assert p.numeric_str(d) == reference_str(p, d), (p, d)

    def test_decimal_ties_round_half_up(self):
        # t / 2**j is a binary fraction that mpmath holds exactly; its
        # decimal digits t * 5**j end in 5, so one digit fewer is a tie
        rng = random.Random(23)
        for _ in range(500):
            j = rng.randint(0, 12)
            t = rng.randrange(11, 10**6, 2) * (5 if j == 0 else 1)
            v = Fraction(rng.choice((1, -1)) * t, 2**j)
            d = len(str(t * 5**j)) - 1
            out = PiPoly.const(v).numeric_str(d)
            assert out == reference_str(PiPoly.const(v), d), (v, d)
            assert abs(Fraction(out)) > abs(v)  # away from zero

    @pytest.mark.parametrize(
        "value, digits, rendered",
        [
            (Fraction(-297605), 5, "-2.9761e+5"),
            (Fraction(-59521, 2), 5, "-29761.0"),
            (Fraction(1, 8), 2, "0.13"),
            (Fraction(5, 2), 1, "3.0"),
            (Fraction(99999, 10**9), 5, "9.9999e-5"),
            (Fraction(1), 17, "1.0"),
            # 0.15 exactly; mpmath's binary 3/20 lies below and prints 0.1
            (Fraction(3, 20), 1, "0.2"),
        ],
    )
    def test_rational_goldens(self, value, digits, rendered):
        assert PiPoly.const(value).numeric_str(digits) == rendered

    def test_cancellation_is_rounded_correctly(self):
        # pi^2 minus its 44-digit truncation is 7.24e-45; 30 digits give
        # -1.58e-30, and the renderer agrees with a 200-digit evaluation
        head = Fraction(98696044010893586188344909998761511353136994, 10**43)
        for sign in (1, -1):
            p = PiPoly.from_coeffs([-sign * head, sign])
            for d in RENDER_DIGITS:
                assert p.numeric_str(d) == reference_str(p, d, dps=200)

    @pytest.mark.parametrize("bits", [64, 132, 1000, 5000])
    def test_pi_bounds_enclose_pi(self, bits):
        import mpmath

        lo, hi = _pi_bounds(bits)
        assert hi - lo <= 3
        with mpmath.workdps(bits // 3 + 30):
            assert lo < mpmath.pi * mpmath.mpf(2) ** bits < hi

    def test_more_digits_than_str_takes(self):
        p = PiPoly.pi2(1)
        assert p.numeric_str(5000) == reference_str(p, 5000, dps=5050)

    @pytest.mark.parametrize("digits", RENDER_DIGITS)
    def test_zero(self, digits):
        assert ZERO_PIPOLY.numeric_str(digits) == "0.0"

    @pytest.mark.parametrize("digits", [0, -1])
    def test_digits_below_one_rejected(self, digits):
        with pytest.raises(ValueError, match="digits must be at least 1"):
            PiPoly.pi2(1, Fraction(1, 4)).numeric_str(digits)

    def test_pi_to_the_400(self):
        f, Q = parse_forest(" ".join(["(1 (1))"] * 200))
        exact = renormalize(f, Q).exact
        assert exact == PiPoly.pi2(200, Fraction(1, 4**200))
        assert exact.numeric_str() == "2.8051159141721427e+78"
        assert exact.numeric_str() == reference_str(exact, 17)


# ---------------------------------------------------------------------------
# TruncSeries
# ---------------------------------------------------------------------------


class TestTruncSeries:
    @hypothesis.given(series(), series(), series())
    def test_addition_laws(self, a, b, c):
        assert ((a + b) + c).terms == (a + (b + c)).terms
        assert (a + b).terms == (b + a).terms
        assert (a - a).is_zero()

    @hypothesis.given(series(), series(), series())
    def test_multiplication_laws(self, a, b, c):
        assert (a * b).terms == (b * a).terms
        assert (a * (b + c)).terms == ((a * b) + (a * c)).terms

    @hypothesis.given(series())
    def test_units(self, a):
        one = TruncSeries.one(a.variables, a.trunc)
        zero = TruncSeries.zero(a.variables, a.trunc)
        assert (a * one).terms == a.terms
        assert (a + zero).terms == a.terms
        assert (a * zero).is_zero()

    def test_mul_truncates(self):
        z = TruncSeries.var((0,), 1, 0)
        assert (z * z).is_zero()
        z2 = TruncSeries.var((0,), 2, 0)
        assert (z2 * z2).terms == {(2,): ONE_PIPOLY}

    def test_variable_mismatch(self):
        a = TruncSeries.one((0, 1), 3)
        b = TruncSeries.one((0, 2), 3)
        with pytest.raises(VariableMismatch):
            a + b
        with pytest.raises(VariableMismatch):
            a * b

    @hypothesis.given(series())
    def test_mul_then_div_by_var_roundtrip(self, a):
        lifted = a.mul_by_var(0)
        back = lifted.div_by_var(0)
        assert back.terms == a.terms
        assert back.trunc == a.trunc

    def test_div_by_var_requires_divisibility(self):
        s = TruncSeries.one((0, 1), 2)
        with pytest.raises(NotDivisible):
            s.div_by_var(0)

    def test_truncated_both_directions(self):
        s = TruncSeries.make(
            (0,), 4, {(0,): ONE_PIPOLY, (3,): ONE_PIPOLY}
        )
        down = s.truncated(2)
        assert down.terms == {(0,): ONE_PIPOLY}
        up = s.truncated(6)
        assert up.trunc == 6 and up.terms == s.terms

    def test_eval0(self):
        s = TruncSeries.make(
            (0, 1), 2, {(0, 0): PiPoly.const(7), (1, 1): ONE_PIPOLY}
        )
        assert s.eval0().coeffs == (Fraction(7),)
        assert TruncSeries.zero((0,), 1).eval0().is_zero()

    def test_str_ordering(self):
        s = TruncSeries.make(
            (0, 1),
            2,
            {
                (2, 0): PiPoly.const(1),
                (0, 0): PiPoly.const(3),
                (1, 1): PiPoly.const(-2),
            },
        )
        assert str(s) == "3 + (-2)*z0*z1 + z0^2"


class TestSubstLinear:
    def test_identity_assignment_is_noop(self):
        s = TruncSeries.make(
            (0, 1), 3, {(1, 2): PiPoly.pi2(1), (1, 0): ONE_PIPOLY}
        )
        assert s.subst_linear({0: {0: 1}, 1: {1: 1}}).terms == s.terms
        assert s.subst_linear({}).terms == s.terms

    def test_swap(self):
        s = TruncSeries.make((0, 1), 3, {(2, 1): ONE_PIPOLY})
        swapped = s.subst_linear({0: {1: 1}, 1: {0: 1}})
        assert swapped.terms == {(1, 2): ONE_PIPOLY}

    def test_kill_variable(self):
        s = TruncSeries.make(
            (0, 1), 2, {(1, 0): ONE_PIPOLY, (0, 1): ONE_PIPOLY}
        )
        killed = s.subst_linear({0: {}})
        assert killed.terms == {(0, 1): ONE_PIPOLY}

    def test_binomial_expansion(self):
        # z0^2 under z0 -> z0 + z1
        s = TruncSeries.make((0, 1), 2, {(2, 0): ONE_PIPOLY})
        out = s.subst_linear({0: {0: 1, 1: 1}})
        assert out.terms == {
            (2, 0): ONE_PIPOLY,
            (1, 1): PiPoly.const(2),
            (0, 2): ONE_PIPOLY,
        }

    @hypothesis.given(series(), series())
    def test_linearity(self, a, b):
        img = {0: {0: Fraction(1, 2), 1: 3}, 1: {0: 1}}
        left = (a + b).subst_linear(img)
        right = a.subst_linear(img) + b.subst_linear(img)
        assert left.terms == right.terms

    @hypothesis.given(series())
    def test_preserves_homogeneous_degree(self, a):
        # Constant-free linear images never mix total degrees.
        img = {0: {0: 2, 1: Fraction(-1, 3)}, 1: {1: 1}}
        out = a.subst_linear(img)
        degrees_in = {sum(ev) for ev in a.terms}
        degrees_out = {sum(ev) for ev in out.terms}
        assert degrees_out <= degrees_in

    def test_unknown_variable_rejected(self):
        s = TruncSeries.one((0, 1), 2)
        with pytest.raises(VariableMismatch):
            s.subst_linear({5: {0: 1}})
        with pytest.raises(VariableMismatch):
            s.subst_linear({0: {5: 1}})
