"""Projection tests: hand-derived values, structural identities, dual routes."""

import random
import time
from fractions import Fraction

import pytest

from forestren import (
    GermFraction,
    ProjectionContext,
    GramMatrix,
    NotProperlyDecorated,
    PiPoly,
    SingularGram,
    TruncSeries,
    VariableMismatch,
    ev0_piplus,
    ev0_piplus_direct,
    gram,
    h_series,
    parse_forest,
    piplus_expand,
    project_coeffs,
    renormalize,
)
from forestren import projector
from forestren.forest import from_shape, vertex_ids
from forestren.renorm import expand_r1
from forestren.series import ONE_PIPOLY, ZERO_PIPOLY

import helpers


def ladder2_ctx():
    f, Q = parse_forest("(1 (1))")
    return f, Q, ProjectionContext(gram(f, Q))


def series_monomial(variables, trunc, exps, coeff=ONE_PIPOLY):
    return TruncSeries.make(variables, trunc, {tuple(exps): coeff})


def rand_fraction(rng, max_vertices=4):
    """A random forest context plus a random numerator/pole-set fraction."""
    f, Q = helpers.random_forest(rng, max_vertices)
    verts = vertex_ids(f)
    k = rng.randint(1, len(verts))
    poles = frozenset(rng.sample(list(verts), k))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        deg = rng.randint(0, k)
        ev = [0] * len(verts)
        for _ in range(deg):
            ev[rng.randrange(len(verts))] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            terms[tuple(ev)] = terms.get(tuple(ev), ZERO_PIPOLY) + PiPoly.const(c)
    num = TruncSeries.make(verts, k, terms)
    return ProjectionContext(gram(f, Q)), GermFraction(num, poles)


class TestProjectCoeffs:
    def test_pole_slots_are_indicators(self):
        _, _, ctx = ladder2_ctx()
        assert project_coeffs(ctx, frozenset({0, 1}), 0) == {
            0: Fraction(1),
            1: Fraction(0),
        }

    def test_defining_equations(self):
        rng = random.Random(3)
        for _ in range(20):
            f, Q = helpers.random_forest(rng, 5)
            ctx = ProjectionContext(gram(f, Q))
            verts = list(vertex_ids(f))
            V = frozenset(rng.sample(verts, rng.randint(1, len(verts))))
            w = rng.choice(verts)
            a = project_coeffs(ctx, V, w)
            for u in V:
                lhs = sum(a[v] * ctx.gram.entry(v, u) for v in V)
                assert lhs == ctx.gram.entry(w, u)

    def test_empty_pole_set_rejected(self):
        _, _, ctx = ladder2_ctx()
        with pytest.raises(ValueError):
            project_coeffs(ctx, frozenset(), 0)


class TestGuards:
    def test_poles_must_be_variables(self):
        num = TruncSeries.one((0, 1), 2)
        with pytest.raises(VariableMismatch):
            GermFraction(num, frozenset({7}))

    def test_context_requires_positive_definite_gram(self):
        bad = GramMatrix(
            (0, 1), ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
        )
        with pytest.raises(SingularGram):
            ProjectionContext(bad)


class TestHandValues:
    """Values derived by hand on the two-vertex ladder, weights (1, 1).

    Gram is [[2, 1], [1, 1]] over (root 0, leaf 1): projecting z_0 onto z_1
    gives coefficient 1, projecting z_1 onto z_0 gives 1/2.
    """

    def test_single_linear_term_over_other_pole(self):
        _, _, ctx = ladder2_ctx()
        num = series_monomial((0, 1), 1, (1, 0))
        assert ev0_piplus(GermFraction(num, frozenset({1})), ctx) == PiPoly.const(1)
        num = series_monomial((0, 1), 1, (0, 1))
        val = ev0_piplus(GermFraction(num, frozenset({0})), ctx)
        assert val == PiPoly.const(Fraction(1, 2))

    def test_h_over_other_pole(self):
        _, _, ctx = ladder2_ctx()
        h0 = h_series(0, 3, variables=(0, 1))
        assert ev0_piplus(GermFraction(h0, frozenset({1})), ctx) == PiPoly.pi2(
            1, Fraction(1, 6)
        )
        h1 = h_series(1, 3, variables=(0, 1))
        assert ev0_piplus(GermFraction(h1, frozenset({0})), ctx) == PiPoly.pi2(
            1, Fraction(1, 12)
        )

    def test_ladder2_full_fraction(self):
        f, Q = parse_forest("(1 (1))")
        frac, ctx = expand_r1(f, Q)
        assert ev0_piplus(frac, ctx) == PiPoly.pi2(1, Fraction(1, 4))


class TestPolarGerms:
    def test_orthogonal_numerator_annihilated(self):
        # Forest (1 (1)) (1): vertex 2 is orthogonal to the pole span {0, 1},
        # so any numerator in z_2 alone is purely polar over those poles.
        f, Q = parse_forest("(1 (1)) (1)")
        ctx = ProjectionContext(gram(f, Q))
        verts = vertex_ids(f)
        for exps in [(0, 0, 1), (0, 0, 2)]:
            num = series_monomial(verts, 2, exps)
            frac = GermFraction(num, frozenset({0, 1}))
            assert ev0_piplus(frac, ctx).is_zero()
            assert piplus_expand(frac, ctx).is_zero()
            assert ev0_piplus_direct(frac, ctx).is_zero()

    def test_pole_variable_over_own_pole_is_holomorphic(self):
        _, _, ctx = ladder2_ctx()
        num = series_monomial((0, 1), 1, (1, 0))
        frac = GermFraction(num, frozenset({0}))
        # z_0/z_0 = 1
        assert ev0_piplus(frac, ctx) == PiPoly.const(1)


class TestLaurentIdentity:
    def test_one_plus_zh_over_z_projects_to_h(self):
        # 1/z + h(z) = (1 + z*h(z))/z: the pole part is annihilated and the
        # projection returns exactly the holomorphic h.
        f, Q = parse_forest("(1)")
        frac, ctx = expand_r1(f, Q)
        out = piplus_expand(frac, ctx)
        expected = h_series(0, frac.numerator.trunc - 1, variables=(0,))
        assert out.terms == expected.terms


class TestSeriesProjection:
    def test_output_truncation_and_eval0(self):
        rng = random.Random(8)
        for _ in range(25):
            ctx, frac = rand_fraction(rng)
            out = piplus_expand(frac, ctx)
            assert out.trunc == frac.numerator.trunc - len(frac.poles)
            assert out.eval0() == ev0_piplus(frac, ctx)
            # ev0_piplus is the constant term of piplus_expand, so only the
            # fast path makes this an independent check
            assert out.eval0() == ev0_piplus_direct(frac, ctx)

    def test_numerator_truncation_guard(self):
        _, _, ctx = ladder2_ctx()
        num = TruncSeries.one((0, 1), 1)
        with pytest.raises(ValueError):
            piplus_expand(GermFraction(num, frozenset({0, 1})), ctx)


class TestOrderInvariance:
    def test_randomized_orders_agree(self):
        rng = random.Random(21)
        for _ in range(8):
            ctx, frac = rand_fraction(rng)
            base = ev0_piplus(frac, ctx)
            for k in range(5):
                shuffled = ProjectionContext(
                    ctx.gram, order_rng=random.Random(k)
                )
                assert ev0_piplus(frac, shuffled) == base

    def test_randomized_context_skips_memo(self):
        rng = random.Random(22)
        ctx, frac = rand_fraction(rng)
        shuffled = ProjectionContext(ctx.gram, order_rng=random.Random(0))
        ev0_piplus(frac, shuffled)
        assert not shuffled._series_memo
        piplus_expand(frac, shuffled)
        assert not shuffled._series_memo
        ev0_piplus(frac, ctx)  # the same fraction does fill a plain memo
        assert ctx._series_memo


class TestGramScaling:
    def test_ev0_invariant_under_positive_scaling(self):
        rng = random.Random(31)
        for _ in range(10):
            ctx, frac = rand_fraction(rng)
            base = ev0_piplus(frac, ctx)
            for c in (Fraction(2), Fraction(1, 3), Fraction(7, 5), Fraction(13)):
                scaled = ProjectionContext(ctx.gram.scaled(c))
                assert ev0_piplus(frac, scaled) == base


class TestDirectRoute:
    """ev0_piplus_direct must agree with the telescoping evaluation."""

    def test_matches_telescoping_on_random_fractions(self):
        rng = random.Random(77)
        for max_vertices in (4, 6):
            for _ in range(60):
                ctx, frac = rand_fraction(rng, max_vertices)
                assert ev0_piplus_direct(frac, ctx) == ev0_piplus(frac, ctx)

    def test_degree_filter(self):
        # only total degree == |poles| can contribute
        _, _, ctx = ladder2_ctx()
        num = series_monomial((0, 1), 3, (1, 0)) + series_monomial(
            (0, 1), 3, (2, 1)
        )
        frac = GermFraction(num, frozenset({0, 1}))
        assert ev0_piplus_direct(frac, ctx).is_zero()
        assert ev0_piplus(frac, ctx).is_zero()

    def test_empty_pole_set_returns_constant_term(self):
        _, _, ctx = ladder2_ctx()
        num = TruncSeries.make(
            (0, 1),
            2,
            {(0, 0): PiPoly.const(5), (1, 1): ONE_PIPOLY},
        )
        frac = GermFraction(num, frozenset())
        assert ev0_piplus_direct(frac, ctx) == PiPoly.const(5)
        assert ev0_piplus(frac, ctx) == PiPoly.const(5)


def top_degree_fraction(rng, max_vertices=6):
    """A random forest context and a fraction whose numerator terms all have
    total degree |poles|, over pole and non-pole variables alike."""
    f, Q = helpers.random_forest(rng, max_vertices, allow_fractions=True)
    verts = vertex_ids(f)
    k = rng.randint(1, len(verts))
    poles = frozenset(rng.sample(list(verts), k))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        ev = [0] * len(verts)
        for _ in range(k):
            ev[rng.randrange(len(verts))] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[tuple(ev)] = PiPoly.pi2(rng.randint(0, 2), c)
    num = TruncSeries.make(verts, k, terms)
    return ProjectionContext(gram(f, Q)), GermFraction(num, poles)


def unit_tree(shape, n):
    return from_shape(shape, [1] * n)


class TestRegionCoordinates:
    """The region-coordinate fast path against the telescoping reference."""

    def test_matches_telescoping_on_random_pole_subsets(self):
        rng = random.Random(2024)
        for _ in range(200):
            ctx, frac = top_degree_fraction(rng)
            ref = ev0_piplus(frac, ProjectionContext(ctx.gram))
            assert ev0_piplus_direct(frac, ctx) == ref

    def test_pinned_ladder_and_corolla(self):
        ladder = unit_tree(helpers.ladder_shape(10), 10)
        assert str(renormalize(*ladder).exact) == "663*pi^10/8192"
        corolla = unit_tree(helpers.corolla_shape(8), 8)
        assert str(renormalize(*corolla).exact) == "3072383*pi^8/2903040"

    def test_corolla_10_within_budget_and_scale_free(self):
        f, Q = unit_tree(helpers.corolla_shape(10), 10)
        start = time.process_time()
        value = renormalize(f, Q).exact
        scaled = renormalize(f, Q.scaled(Fraction(3, 2))).exact
        elapsed = time.process_time() - start
        assert elapsed < 10.0, f"corolla n=10 took {elapsed:.1f}s"
        assert value == scaled
        assert not value.is_zero()

    def test_fast_path_solves_nothing(self, monkeypatch):
        forests = [
            unit_tree(helpers.ladder_shape(6), 6),
            unit_tree(helpers.corolla_shape(6), 6),
            parse_forest("(2 (1 (3)) (1)) (1 (5))"),
        ]
        want = [renormalize(*fQ).exact for fQ in forests]
        rng = random.Random(9)
        fracs = [top_degree_fraction(rng, 5) for _ in range(20)]
        refs = [ev0_piplus(fr, ProjectionContext(c.gram)) for c, fr in fracs]

        def refuse(*args, **kwargs):
            raise AssertionError("the fast path reached a Gram solve")

        monkeypatch.setattr(GramMatrix, "solve", refuse)
        monkeypatch.setattr(projector, "project_coeffs", refuse)
        assert [renormalize(*fQ).exact for fQ in forests] == want
        for (ctx, frac), ref in zip(fracs, refs):
            assert ev0_piplus_direct(frac, ctx) == ref
            assert not ctx._coeff_cache

    def test_reference_never_reaches_fast_path(self, monkeypatch):
        rng = random.Random(10)
        fracs = [top_degree_fraction(rng, 5) for _ in range(20)]
        want = [
            ev0_piplus_direct(fr, ProjectionContext(c.gram)) for c, fr in fracs
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("the reference reached the fast path")

        monkeypatch.setattr(projector, "_region_value", refuse)
        monkeypatch.setattr(projector.Nesting, "of", refuse)
        for (ctx, frac), value in zip(fracs, want):
            assert ev0_piplus(frac, ctx) == value
            assert not ctx._monomial_memo


class TestNesting:
    def test_reads_forest_order(self):
        f, Q = parse_forest("(1 (2) (3 (4)))")
        nest = ProjectionContext(gram(f, Q)).nesting()
        order = sorted(nest.pos, key=nest.pos.get)
        assert order == [0, 2, 3, 1]  # decreasing subtree weight
        assert nest.weight == (10, 7, 4, 2)
        root, mid, leaf4, leaf2 = range(4)
        assert nest.anc[leaf4] == 1 << root | 1 << mid
        assert nest.anc[leaf2] == 1 << root
        assert nest.desc[root] == 1 << mid | 1 << leaf4 | 1 << leaf2

    def test_positive_definite_non_nesting_gram_rejected(self):
        two = (Fraction(2), Fraction(1)), (Fraction(1), Fraction(2))
        ctx = ProjectionContext(GramMatrix((0, 1), two))  # det 3 > 0
        num = series_monomial((0, 1), 2, (1, 1))
        frac = GermFraction(num, frozenset({0, 1}))
        with pytest.raises(NotProperlyDecorated, match="neither 0 nor"):
            ev0_piplus_direct(frac, ctx)
        ev0_piplus(frac, ctx)  # the reference takes any positive-definite Gram

    def test_ancestors_must_form_a_chain(self):
        # vertex 2 lies below both 0 and 1, which are disjoint
        rows = ((3, 0, 1), (0, 3, 1), (1, 1, 1))
        g = GramMatrix((0, 1, 2), tuple(tuple(map(Fraction, r)) for r in rows))
        ctx = ProjectionContext(g)
        with pytest.raises(NotProperlyDecorated, match="do not nest"):
            ctx.nesting()
