"""Numerical quadrature and subset-expansion cross-checks."""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from forestren import (
    ConvergenceFailure,
    DomainError,
    EMPTY_FOREST,
    IndexOutOfRange,
    InnerProduct,
    NumericAssignment,
    PiPoly,
    QuadConfig,
    admissible_assignment,
    basis,
    closed_form_value,
    parse_forest,
    quad_single,
    quad_tree,
    renorm_subset_oracle,
    renormalize,
)
from forestren.forest import from_shape, subtree_sums

import helpers


class TestQuadSingle:
    def test_central_exponent(self):
        assert abs(quad_single(0.5, 1.0) - math.pi) < 1e-8 * math.pi

    def test_external_parameter_scaling(self):
        val = quad_single(0.5, 4.0)
        assert abs(val - math.pi / 2) < 1e-8 * val

    def test_against_closed_form_grid(self):
        for a in (0.25, 0.5, 0.75, 0.9):
            for x in (0.5, 1.0, 2.0):
                expected = math.pi / math.sin(math.pi * a) * x ** (-a)
                got = quad_single(a, x)
                assert abs(got - expected) < 1e-8 * expected

    def test_exponent_outside_strip(self):
        with pytest.raises(DomainError):
            quad_single(1.2, 1.0)
        with pytest.raises(DomainError):
            quad_single(0.0, 1.0)

    def test_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            quad_single(0.5, 0.0)

    def test_unreachable_tolerance(self):
        with pytest.raises(ConvergenceFailure):
            quad_single(0.5, 1.0, QuadConfig(max_refinements=0))


class TestQuadTree:
    def test_ladder_reference_value(self):
        f, _ = parse_forest("(1 (1))")
        assign = NumericAssignment({0: 0.2, 1: 0.3})
        expected = math.pi**2 / (math.sin(0.3 * math.pi) * math.sin(0.5 * math.pi))
        got = quad_tree(f, assign, 1.0)
        assert abs(got - expected) < 1e-6 * expected

    def test_matches_closed_form_on_random_forests(self):
        rng = random.Random(23)
        for _ in range(5):
            f, _ = helpers.random_forest(rng, 3)
            assign = admissible_assignment(f, rng)
            for x in (0.8, 1.0, 1.7):
                expected = closed_form_value(f, assign, x)
                got = quad_tree(f, assign, x)
                assert abs(got - expected) < 1e-6 * expected

    def test_empty_forest(self):
        assert quad_tree(EMPTY_FOREST, NumericAssignment({}), 1.0) == 1.0

    def test_strip_violation(self):
        f, _ = parse_forest("(1 (1))")
        with pytest.raises(DomainError):
            quad_tree(f, NumericAssignment({0: 0.8, 1: 0.5}), 1.0)

    def test_nonpositive_parameter(self):
        f, _ = parse_forest("(1)")
        with pytest.raises(DomainError):
            quad_tree(f, NumericAssignment({0: 0.5}), -1.0)

    def test_overflow_is_a_domain_error(self):
        f, _ = parse_forest("(1 " * 900 + ")" * 900)
        assign = admissible_assignment(f, random.Random(0))
        with pytest.raises(DomainError, match="value overflows float64"):
            quad_tree(f, assign, 0.5)

    def test_kernel_bound_is_a_convergence_failure(self):
        f, _ = parse_forest("(1 " * 50 + ")" * 50)
        assign = admissible_assignment(f, random.Random(0))
        start = time.perf_counter()
        with pytest.raises(ConvergenceFailure, match="before refinement 5"):
            quad_tree(f, assign, 1.0)
        assert time.perf_counter() - start < 10.0


class TestClosedFormValue:
    def test_single_vertex(self):
        f, _ = parse_forest("(1)")
        assign = NumericAssignment({0: 0.25})
        expected = math.pi / math.sin(math.pi * 0.25) * 2.0 ** (-0.25)
        assert abs(closed_form_value(f, assign, 2.0) - expected) < 1e-12

    def test_strip_checked(self):
        f, _ = parse_forest("(1)")
        with pytest.raises(DomainError):
            closed_form_value(f, NumericAssignment({0: 1.5}), 1.0)

    def test_overflow_is_a_domain_error(self):
        f, _ = parse_forest("(1 " * 900 + ")" * 900)
        assign = admissible_assignment(f, random.Random(0))
        with pytest.raises(DomainError, match="value overflows float64"):
            closed_form_value(f, assign, 0.5)
        # x ** -2.7 alone overflows
        f, _ = parse_forest("(1) (1) (1)")
        assign = NumericAssignment({0: 0.9, 1: 0.9, 2: 0.9})
        with pytest.raises(DomainError, match="value overflows float64"):
            closed_form_value(f, assign, 1e-200)


class TestAdmissibleAssignment:
    def test_sums_stay_in_strip(self):
        rng = random.Random(29)
        for _ in range(20):
            f, _ = helpers.random_forest(rng, 6)
            assign = admissible_assignment(f, rng)
            for s in subtree_sums(f).values():
                assert 0.0 < assign.value_of(s) < 1.0

    def test_requires_axis_decorations(self):
        f, Q = parse_forest("Q=1,0;0,1\n([1,1]) ([1,-1])")
        with pytest.raises(DomainError):
            admissible_assignment(f, random.Random(0))

    def test_empty_forest(self):
        out = admissible_assignment(EMPTY_FOREST, random.Random(0))
        assert out.values == {}


class TestNumericAssignment:
    def test_linear_form_evaluation(self):
        assign = NumericAssignment({0: 0.25, 1: 0.5})
        lf = basis(0).scaled(2) + basis(1)
        assert abs(assign.value_of(lf) - 1.0) < 1e-15

    def test_missing_index(self):
        with pytest.raises(IndexOutOfRange):
            NumericAssignment({0: 0.5}).value_of(basis(3))


class TestQuadConfig:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=-1.0)


class TestSubsetOracle:
    def test_confirms_ladder_goldens(self):
        f, Q = parse_forest("(1 (1))")
        assert renorm_subset_oracle(f, Q) == PiPoly.pi2(1, Fraction(1, 4))
        f, Q = parse_forest("(1 (2))")
        assert renorm_subset_oracle(f, Q) == PiPoly.pi2(1, Fraction(5, 18))

    def test_matches_pipeline_on_random_forests(self):
        rng = random.Random(31)
        for _ in range(8):
            f, Q = helpers.random_forest(rng, 4)
            assert renorm_subset_oracle(f, Q) == renormalize(f, Q).exact

    def test_seed_choice_is_irrelevant(self):
        f, Q = parse_forest("(1 (2) (3 (1)))")
        vals = {renorm_subset_oracle(f, Q, seed=s) for s in (0, 1, 99)}
        assert len(vals) == 1

    def test_degree_cap(self):
        shape = helpers.ladder_shape(13)
        f, Q = from_shape(shape, [1] * 13)
        with pytest.raises(ValueError):
            renorm_subset_oracle(f, Q)


def test_import_does_not_load_numpy():
    # numpy is loaded by the first quadrature call, not by the package
    code = "import sys, forestren; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
