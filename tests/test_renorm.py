"""Closed-form regularization and the renormalized character."""

import random
import time
from fractions import Fraction

import mpmath
import pytest

from forestren import (
    EMPTY_FOREST,
    InnerProduct,
    NonPositiveWeight,
    NotProperlyDecorated,
    NumeratorTooLarge,
    PiPoly,
    RegularizedIntegral,
    RenormalizedValue,
    basis,
    ev0_piplus_direct,
    expand_r1,
    form,
    gram,
    is_similar,
    parse_forest,
    r1,
    regularize,
    renormalize,
)
import forestren.forest
from forestren.forest import degree, forest_of, shape_size, tree
from forestren.pairing import LinearForm

import helpers


class TestRegularize:
    def test_two_vertex_ladder(self):
        f, Q = parse_forest("(1 (1))")
        reg = regularize(f, Q)
        assert reg.exponent == form({0: 1, 1: 1})
        assert reg.factors == (form({0: 1, 1: 1}), basis(1))

    def test_empty_forest(self):
        reg = regularize(EMPTY_FOREST, InnerProduct.identity(0))
        assert reg.exponent == LinearForm(())
        assert reg.factors == ()

    def test_three_corolla(self):
        f, Q = parse_forest("(1 (1) (1))")
        reg = regularize(f, Q)
        assert reg.exponent == form({0: 1, 1: 1, 2: 1})
        assert reg == RegularizedIntegral.make(
            reg.exponent, (basis(2), form({0: 1, 1: 1, 2: 1}), basis(1))
        )

    def test_r1_is_factor_list(self):
        f, Q = parse_forest("(2 (3))")
        assert r1(f, Q) == regularize(f, Q).factors

    def test_make_sorts_factors(self):
        a, b = basis(0), form({0: 1, 1: 1})
        e = form({0: 1, 1: 1})
        assert RegularizedIntegral.make(e, (a, b)) == RegularizedIntegral.make(
            e, (b, a)
        )


class TestRenormalizeGoldens:
    def test_unit_ladder(self):
        f, Q = parse_forest("(1 (1))")
        val = renormalize(f, Q)
        assert val.exact == PiPoly.pi2(1, Fraction(1, 4))
        assert val.numeric_str() == "2.4674011002723397"
        with mpmath.workdps(30):
            assert abs(val.numeric - mpmath.pi**2 / 4) < mpmath.mpf("1e-25")

    def test_weighted_ladder(self):
        f, Q = parse_forest("(1 (2))")
        assert renormalize(f, Q).exact == PiPoly.pi2(1, Fraction(5, 18))

    def test_single_vertex_vanishes(self):
        f, Q = parse_forest("(1)")
        val = renormalize(f, Q)
        assert val.exact.is_zero()
        assert val.numeric_str() == "0.0"

    def test_empty_forest_is_one(self):
        val = renormalize(EMPTY_FOREST, InnerProduct.identity(0))
        assert val.exact == PiPoly.const(1)


class TestParity:
    def test_odd_vertex_forests_vanish(self):
        rng = random.Random(5)
        seen = 0
        for shape in helpers.shapes_up_to(5):
            if shape_size(shape) % 2 == 0:
                continue
            from forestren.forest import from_shape

            f, Q = from_shape(
                shape, helpers.random_weights(rng, shape_size(shape))
            )
            assert renormalize(f, Q).exact.is_zero()
            seen += 1
        assert seen > 20


class TestFactoring:
    def test_odd_tree_makes_forest_vanish(self):
        # even total degree, but both trees are odd
        f, Q = parse_forest("(1) (2 (1) (3))")
        assert renormalize(f, Q).exact.is_zero()
        assert ev0_piplus_direct(*expand_r1(f, Q)).is_zero()

    @pytest.mark.parametrize(
        "text, repeats, expected",
        [("(1)", 60, "0"), ("(1 (1))", 30, "pi^60/1152921504606846976")],
    )
    def test_many_trees_are_fast(self, text, repeats, expected):
        f, Q = parse_forest(" ".join([text] * repeats))
        start = time.perf_counter()
        value = renormalize(f, Q)
        elapsed = time.perf_counter() - start
        assert str(value.exact) == expected
        assert elapsed < 1.0

    def test_numerator_slice_too_large_is_refused(self):
        f, Q = parse_forest("(1 " * 20 + ")" * 20)
        start = time.perf_counter()
        with pytest.raises(NumeratorTooLarge, match="degree 20 needs more"):
            renormalize(f, Q)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("odd_first", [True, False])
    def test_odd_tree_beats_the_slice_limit(self, odd_first):
        ladder = "(1 " * 20 + ")" * 20
        text = f"(1) {ladder}" if odd_first else f"{ladder} (1)"
        f, Q = parse_forest(text)
        assert renormalize(f, Q).exact.is_zero()


class TestMultiplicativity:
    def test_independent_concatenation(self):
        rng = random.Random(11)
        for _ in range(20):
            f1, f2, Q, cat = helpers.independent_pair(rng, 3)
            lhs = renormalize(cat, Q).exact
            rhs = renormalize(f1, Q).exact * renormalize(f2, Q).exact
            assert lhs == rhs


class TestScalingInvariance:
    def test_global_weight_rescaling(self):
        rng = random.Random(13)
        for _ in range(15):
            f, Q = helpers.random_forest(rng, 4)
            base = renormalize(f, Q).exact
            for c in (2, Fraction(1, 3), Fraction(7, 5), 13):
                assert renormalize(f, Q.scaled(c)).exact == base


class TestSimilar:
    def test_scaled_copy(self):
        f1, Q1 = parse_forest("(1 (2))")
        f2, Q2 = parse_forest("(3 (6))")
        assert is_similar(f1, Q1, f2, Q2)
        assert renormalize(f1, Q1).exact == renormalize(f2, Q2).exact

    def test_non_uniform_rescaling_rejected(self):
        f1, Q1 = parse_forest("(1 (1))")
        f2, Q2 = parse_forest("(1 (2))")
        assert not is_similar(f1, Q1, f2, Q2)

    def test_different_shape_same_degree(self):
        f1, Q1 = parse_forest("(1 (1) (1))")
        f2, Q2 = parse_forest("(1 (1 (1)))")
        assert not is_similar(f1, Q1, f2, Q2)

    def test_degree_mismatch(self):
        f1, Q1 = parse_forest("(1)")
        f2, Q2 = parse_forest("(1 (1))")
        assert not is_similar(f1, Q1, f2, Q2)

    def test_empty_cases(self):
        e = InnerProduct.identity(0)
        f, Q = parse_forest("(1)")
        assert is_similar(EMPTY_FOREST, e, EMPTY_FOREST, e)
        assert not is_similar(EMPTY_FOREST, e, f, Q)

    def test_random_scalings_similar(self):
        rng = random.Random(17)
        for _ in range(15):
            f, Q = helpers.random_forest(rng, 4)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert is_similar(f, Q, f, Q.scaled(c))


class TestTruncation:
    def test_higher_truncation_agrees(self):
        rng = random.Random(19)
        for text in ["(1 (1))", "(1 (1) (1))", "(2 (1 (3)))"]:
            f, Q = parse_forest(text)
            n = degree(f)
            vals = {renormalize(f, Q, N=N).exact for N in (n, n + 2, n + 4)}
            assert len(vals) == 1
        for _ in range(5):
            f, Q = helpers.random_forest(rng, 4)
            n = degree(f)
            assert (
                renormalize(f, Q, N=n + 2).exact
                == renormalize(f, Q, N=n + 4).exact
            )

    def test_truncation_below_degree_rejected(self):
        f, Q = parse_forest("(1 (1) (1))")
        with pytest.raises(
            ValueError, match="^truncation 2 is below the forest degree 3$"
        ):
            renormalize(f, Q, N=2)


class TestGuards:
    def test_improper_decoration_rejected(self):
        f, _ = parse_forest("(1 (1))")
        skew = InnerProduct.from_matrix(
            [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
        )
        with pytest.raises(NotProperlyDecorated):
            renormalize(f, skew)
        with pytest.raises(NotProperlyDecorated):
            regularize(f, skew)

    @pytest.mark.parametrize(
        "stage",
        [renormalize, regularize, gram, expand_r1],
        ids=lambda stage: stage.__name__,
    )
    def test_one_rule_one_message(self, stage):
        ladder, _ = parse_forest("(1 (1))")
        skew = InnerProduct.from_matrix(
            [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
        )
        zero = forest_of(tree(0, LinearForm(()), [tree(1, basis(1))]))
        for f, Q in ((ladder, skew), (zero, InnerProduct.identity(2))):
            with pytest.raises(
                NotProperlyDecorated,
                match="^the pipeline is defined only for properly"
                " decorated forests$",
            ):
                stage(f, Q)
        f, _ = parse_forest("(1) (1 (1))")
        indefinite = InnerProduct.diagonal({0: 1, 1: 1, 2: -1})
        with pytest.raises(NonPositiveWeight):
            stage(f, indefinite)

    @pytest.mark.parametrize(
        "stage",
        [renormalize, regularize, gram, expand_r1],
        ids=lambda stage: stage.__name__,
    )
    def test_repeated_vertex_id_refused(self, stage):
        # with ids 0 and 1 this forest renormalizes to 5*pi^2/18
        f = forest_of(tree(0, basis(0), [tree(0, basis(1))]))
        Q = InnerProduct.diagonal({0: 1, 1: 2})
        with pytest.raises(ValueError, match="^vertex id 0 occurs twice$"):
            stage(f, Q)

    def test_one_validation_per_call(self, monkeypatch):
        f, Q = parse_forest("(1 (1)) (2 (1) (3) (1))")
        calls = []
        check = forestren.forest.check_properly_decorated

        def spy(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(forestren.forest, "check_properly_decorated", spy)
        assert not renormalize(f, Q).exact.is_zero()
        assert calls == [(f, Q)]

    def test_weights_checked_past_an_odd_tree(self):
        # the odd first tree ends the product, but every vertex is validated
        f, _ = parse_forest("(1) (1 (1))")
        indefinite = InnerProduct.diagonal({0: 1, 1: 1, 2: -1})
        with pytest.raises(NonPositiveWeight):
            renormalize(f, indefinite)


class TestRenormalizedValue:
    def test_from_exact_tracks_pi(self):
        val = RenormalizedValue.from_exact(PiPoly.pi2(2, Fraction(3, 7)))
        with mpmath.workdps(30):
            assert abs(val.numeric - 3 * mpmath.pi**4 / 7) < mpmath.mpf("1e-24")

    def test_numeric_str_digits(self):
        val = RenormalizedValue.from_exact(PiPoly.const(Fraction(1, 3)))
        assert val.numeric_str(digits=5) == "0.33333"

    def test_numeric_is_evalf_at_30_digits(self):
        f, Q = parse_forest("(1 (2) (1 (1)))")
        val = renormalize(f, Q)
        assert not val.exact.is_zero()
        assert val.numeric == val.exact.evalf(30)
        assert val.numeric is val.numeric  # evaluated once, then kept

    @pytest.mark.parametrize(
        "exact, rendered",
        [
            (PiPoly.pi2(1, Fraction(1, 4)), "2.4674011002723397"),
            (PiPoly.pi2(6, Fraction(4641, 65536)), "65453.083365630792"),
            (PiPoly.pi2(7, Fraction(16575, 262144)), "576782.17825919496"),
            (
                PiPoly.from_coeffs([Fraction(-1, 3), 0, Fraction(5, 7)]),
                "69.244588833811265",
            ),
        ],
    )
    def test_numeric_str_goldens(self, exact, rendered):
        # pi^2/4, ladder 12 and ladder 14 as printed by the CLI
        assert RenormalizedValue.from_exact(exact).numeric_str() == rendered

    def test_equality_and_hash_follow_exact(self):
        exact = PiPoly.pi2(1, Fraction(1, 4))
        a = RenormalizedValue.from_exact(exact)
        b = RenormalizedValue.from_exact(PiPoly.pi2(1, Fraction(1, 4)))
        # an evaluated value still equals an unevaluated one
        assert a.numeric == exact.evalf(30)
        assert a == b
        assert hash(a) == hash(b)
        assert a != RenormalizedValue.from_exact(PiPoly.pi2(1, Fraction(1, 3)))


def _l2_context():
    return forestren.ProjectionContext(gram(*parse_forest("(1 (1))")))


# Each call that refuses its argument, with the message the refusal gives.
BAD_ARGUMENTS = {
    "concat": (
        lambda: forestren.concat(
            forest_of(tree(0, basis(0))),
            forest_of(tree(0, basis(0))),
            InnerProduct.identity(1),
        ),
        "occur in both concatenation operands",
    ),
    "graft": (
        lambda: forestren.graft(
            basis(1), forest_of(tree(0, basis(0))), InnerProduct.identity(2), 0
        ),
        "root id 0 already used",
    ),
    "vertex_weights": (
        lambda: forestren.forest.vertex_weights(
            forest_of(tree(0, basis(0)), tree(0, basis(1))),
            InnerProduct.identity(2),
        ),
        "vertex id 0 occurs twice",
    ),
    "from_shape": (
        lambda: forestren.from_shape(((),), [1, 2]), "shape needs 1 weights"
    ),
    "from_matrix-square": (
        lambda: InnerProduct.from_matrix([[1, 2]]), "not square"
    ),
    "from_matrix-symmetric": (
        lambda: InnerProduct.from_matrix([[1, 2], [3, 1]]), "not symmetric"
    ),
    "scaled": (
        lambda: InnerProduct.identity(1).scaled(0), "scale must be nonzero"
    ),
    "h_series": (lambda: forestren.h_series(0, 0), "needs N >= 1"),
    "project_coeffs": (
        lambda: forestren.project_coeffs(_l2_context(), frozenset(), 0),
        "pole set must be non-empty",
    ),
    "piplus_expand": (
        lambda: forestren.piplus_expand(
            forestren.GermFraction(
                forestren.TruncSeries.one((0, 1), 1), frozenset({0, 1})
            ),
            _l2_context(),
        ),
        "truncation must be at least the number of poles",
    ),
    "numeric_str": (
        lambda: PiPoly.const(1).numeric_str(0), "digits must be at least 1"
    ),
}


@pytest.mark.parametrize(
    "call, message", BAD_ARGUMENTS.values(), ids=list(BAD_ARGUMENTS)
)
def test_bad_argument_is_a_library_error_and_a_value_error(call, message):
    with pytest.raises(forestren.InvalidArgument, match=message) as info:
        call()
    assert isinstance(info.value, forestren.ForestrenError)
    assert isinstance(info.value, ValueError)
