"""Numerical quadrature and subset-expansion cross-checks."""

import gc
import math
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from forestren import (
    ConvergenceFailure,
    DomainError,
    EMPTY_FOREST,
    GermFraction,
    IndexOutOfRange,
    InnerProduct,
    NumericAssignment,
    NumeratorTooLarge,
    PiPoly,
    ProjectionContext,
    TruncSeries,
    admissible_assignment,
    basis,
    closed_form_value,
    ev0_piplus,
    gram,
    h_series,
    parse_forest,
    quad_single,
    quad_tree,
    renorm_subset_oracle,
    renormalize,
)
from forestren import oracle
from forestren.forest import from_shape, subtree_sums, vertex_ids

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

    def test_unreachable_tolerance(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_REFINEMENTS", 0)
        with pytest.raises(ConvergenceFailure):
            quad_single(0.5, 1.0)


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

    # (tree, point, x, value, level): quad_tree values recorded from the
    # dense-kernel implementation, and the refinement level each converges
    # at.  Any kernel must reproduce them to rounding.
    PINNED = [
        ("(1 (1) (1) (1))", (0.2, 0.15, 0.1, 0.18), 1.0, 1411.9501121125272, 5),
        ("(1 (1 (1 (1))))", (0.2, 0.15, 0.1, 0.12), 0.7, 567.9774058184892, 5),
        (
            "(1 (2) (3 (1)))",
            (0.21484645379642703, 0.21399366942445305, 0.223063366054236,
             0.20364943904961633),
            1.0,
            613.8253439247509,
            6,
        ),
        ("(1 (1) (1 (1)))", (0.1, 0.15, 0.1, 0.12), 2.0, 663.0971223073788, 5),
        (
            "(2 (1 (1)) (1) (3 (2)))",
            (0.12, 0.1, 0.14, 0.09, 0.11, 0.13),
            0.5,
            84825.86191851224,
            5,
        ),
    ]

    @pytest.mark.parametrize("text, point, x, value, level", PINNED)
    def test_pinned_reference_values(
        self, monkeypatch, text, point, x, value, level
    ):
        levels = []
        de_grid = oracle._de_grid

        def recording_grid(k):
            levels.append(k)
            return de_grid(k)

        monkeypatch.setattr(oracle, "_de_grid", recording_grid)
        f, _ = parse_forest(text)
        got = quad_tree(f, NumericAssignment(dict(enumerate(point))), x)
        assert abs(got - value) <= 1e-14 * value
        assert max(levels) == level

    def test_kernel_bound_is_a_convergence_failure(self):
        f, _ = parse_forest("(1 " * 50 + ")" * 50)
        assign = admissible_assignment(f, random.Random(0))
        start = time.perf_counter()
        with pytest.raises(ConvergenceFailure, match="before refinement 5"):
            quad_tree(f, assign, 1.0)
        assert time.perf_counter() - start < 10.0


def dense_contraction(log_y, log_c):
    """Test-only reference: log sum_k e^(c_k) / (y_j + y_k) at every node j,
    one dense log-space term per pair of nodes."""
    import numpy as np

    terms = log_c[None, :] - np.logaddexp(log_y[:, None], log_y[None, :])
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


@pytest.fixture
def kernel_builds(monkeypatch):
    """Levels whose kernel is built, in order, starting from an empty cache."""
    levels = range(oracle.MAX_REFINEMENTS + 1)
    level_of = {len(oracle._de_grid(k)[0]): k for k in levels}
    built = []
    build = oracle._LevelKernel

    def recording_kernel(log_y):
        built.append(level_of[len(log_y)])
        return build(log_y)

    monkeypatch.setattr(oracle, "_LevelKernel", recording_kernel)
    oracle._level_kernel.cache_clear()
    yield built
    oracle._level_kernel.cache_clear()


class TestLevelKernel:
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
    def test_contraction_matches_dense_log_space(self, level):
        import numpy as np

        log_y, log_w = oracle._de_grid(level)
        kernel = oracle._LevelKernel(log_y)
        rng = np.random.default_rng(level)
        m = len(log_y)
        weight_vectors = [
            rng.uniform(-3000.0, 3000.0, m),
            np.linspace(-3000.0, 3000.0, m) + rng.normal(0.0, 5.0, m),
            np.linspace(3000.0, -3000.0, m) + rng.normal(0.0, 5.0, m),
            rng.uniform(-5.0, 5.0, m),
            log_w - 0.4 * log_y,
        ]
        for log_c in weight_vectors:
            got = kernel.contract(log_c)
            want = dense_contraction(log_y, log_c)
            # a difference d of logs is a relative difference e^d - 1 of
            # values; every row is checked, the grid's two ends included
            assert got.shape == want.shape
            assert np.max(np.abs(np.expm1(got - want))) <= 1e-12

    def test_tile_selection_is_exact(self):
        clip = oracle._KERNEL_CLIP
        # a distance at the clip already leaves B exactly 1.0 in float64
        assert 1.0 / (1.0 + math.exp(-clip)) == 1.0
        block = oracle._KERNEL_BLOCK
        for level in range(oracle.MAX_REFINEMENTS + 1):
            log_y, _ = oracle._de_grid(level)
            m = len(log_y)
            rows, cols = oracle._near_tiles(log_y)
            stored = set(zip(rows.tolist(), cols.tolist()))
            assert all(r > b for r, b in stored)
            blocks = -(-m // block)
            for r in range(blocks):
                for b in range(r):
                    gap = log_y[r * block] - log_y[min((b + 1) * block, m) - 1]
                    assert ((r, b) in stored) == (gap < clip), (level, r, b)

    def test_level_5_kernel_keeps_near_tiles_only(self):
        import numpy as np

        log_y, _ = oracle._de_grid(5)
        kernel = oracle._LevelKernel(log_y)
        m = len(log_y)
        assert kernel.tiles.size <= 0.2 * m**2
        # with the own blocks in log space and every index array
        held = sum(
            a.size for a in vars(kernel).values() if isinstance(a, np.ndarray)
        )
        assert held <= 0.25 * m**2

    def test_cached_kernel_is_read_only(self):
        import numpy as np

        kernel = oracle._level_kernel(3)
        arrays = [
            a for a in vars(kernel).values() if isinstance(a, np.ndarray)
        ]
        before = [a.tobytes() for a in arrays]
        log_y, log_w = oracle._de_grid(3)
        kernel.contract(log_w - 0.4 * log_y)
        assert [a.tobytes() for a in arrays] == before
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    def test_one_kernel_per_level_visited(self, kernel_builds):
        quad_single(0.5, 1.0)  # a lone root contracts nothing
        assert kernel_builds == []
        f, _ = parse_forest("(1 (1) (1 (1)))")
        assign = NumericAssignment({0: 0.1, 1: 0.15, 2: 0.1, 3: 0.12})
        first = quad_tree(f, assign, 2.0)
        assert kernel_builds == [0, 1, 2, 3, 4, 5]
        assert oracle._level_kernel.cache_info().currsize == 6
        # a second call at the same levels builds no kernel
        assert quad_tree(f, assign, 2.0) == first
        assert kernel_builds == [0, 1, 2, 3, 4, 5]

    def test_refused_level_builds_no_kernel(self, kernel_builds):
        f, _ = parse_forest("(1 " * 50 + ")" * 50)
        assign = admissible_assignment(f, random.Random(0))
        with pytest.raises(ConvergenceFailure, match="before refinement 5"):
            quad_tree(f, assign, 1.0)
        assert kernel_builds == [0, 1, 2, 3, 4]

    def test_no_level_past_6_is_cached(self, monkeypatch, kernel_builds):
        # A level is refused before its kernel is built, and at level 7 one
        # contraction alone exceeds the bound.
        assert len(oracle._de_grid(6)[0]) ** 2 <= oracle.MAX_QUAD_KERNEL
        assert len(oracle._de_grid(7)[0]) ** 2 > oracle.MAX_QUAD_KERNEL
        monkeypatch.setattr(oracle, "REL_TOL", -1.0)
        monkeypatch.setattr(oracle, "ABS_TOL", -1.0)
        f, _ = parse_forest("(1 (1))")
        with pytest.raises(ConvergenceFailure, match="before refinement 7"):
            quad_tree(f, NumericAssignment({0: 0.2, 1: 0.3}), 1.0)
        assert kernel_builds == [0, 1, 2, 3, 4, 5, 6]

    def test_no_memory_kept_across_calls(self):
        f, _ = parse_forest("(1 (1) (1 (1)))")
        assign = NumericAssignment({0: 0.1, 1: 0.15, 2: 0.1, 3: 0.12})
        quad_tree(f, assign, 1.0)  # first call loads numpy
        gc.disable()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                quad_tree(f, assign, 1.0)
            grown = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
            gc.enable()
        # the first call cached the kernels of levels 0-5 (2.7 MB); what a
        # call allocates beyond them, 0.9 MB at level 5, must not stay
        assert grown < 100_000, f"{grown} bytes still held after 10 calls"


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

    FORESTS = (
        "(1 (2 (3)))",
        "(1 (2) (3 (1)))",
        "(3/2 (1)) (2 (1/2))",
        "(1) (2 (3)) (5/2)",
        "(2 (1) (1) (3/2 (1)))",
    )

    @staticmethod
    def per_mask_oracle(f, Q, seed):
        """The subset oracle with a projection context of its own per mask
        and each numerator built from 1 to the forest degree."""
        variables = vertex_ids(f)
        n = len(variables)
        g = gram(f, Q)
        total = PiPoly.const(0)
        for mask in range(2**n):
            poles = frozenset(variables[k] for k in range(n) if mask >> k & 1)
            numerator = TruncSeries.one(variables, n)
            for k in range(n):
                if not mask >> k & 1:
                    numerator = numerator * h_series(variables[k], n, variables)
            ctx = ProjectionContext(
                g, order_rng=random.Random(seed * 1000003 + mask)
            )
            total = total + ev0_piplus(GermFraction(numerator, poles), ctx)
        return total

    def test_matches_one_context_per_mask(self):
        for text in self.FORESTS:
            f, Q = parse_forest(text)
            for seed in range(4):
                want = self.per_mask_oracle(f, Q, seed)
                assert renorm_subset_oracle(f, Q, seed=seed) == want

    def test_one_context_and_one_solve_per_pair(self, monkeypatch):
        contexts, solves = [], []
        init, solve = ProjectionContext.__init__, InnerProduct.solve

        def spy_init(ctx, *args, **kwargs):
            contexts.append(ctx)
            init(ctx, *args, **kwargs)

        def spy_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(ProjectionContext, "__init__", spy_init)
        monkeypatch.setattr(InnerProduct, "solve", spy_solve)
        for text in self.FORESTS:
            contexts.clear()
            solves.clear()
            f, Q = parse_forest(text)
            renorm_subset_oracle(f, Q)
            [ctx] = contexts
            # one cache entry per solved (pole set, slot) pair
            assert solves
            assert len(solves) == len(ctx._coeff_cache)

    def test_degree_cap(self):
        shape = helpers.ladder_shape(13)
        f, Q = from_shape(shape, [1] * 13)
        with pytest.raises(NumeratorTooLarge, match="degree <= 12") as info:
            renorm_subset_oracle(f, Q)
        assert isinstance(info.value, ValueError)


def test_import_does_not_load_numpy():
    # numpy is loaded by the first quadrature call, not by the package
    code = "import sys, forestren; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
