"""Projection tests: hand-derived values, structural identities, dual routes."""

import math
import random
import time
from fractions import Fraction

import pytest

from forestren import (
    GermFraction,
    ProjectionContext,
    InnerProduct,
    NotProperlyDecorated,
    PiPoly,
    SingularGram,
    TruncSeries,
    VariableMismatch,
    ev0_piplus,
    ev0_piplus_direct,
    gram,
    gram_from_inner,
    h_series,
    parse_forest,
    piplus_expand,
    project_coeffs,
    renormalize,
)
import forestren.forest
import forestren.renorm
from forestren import projector, region
from forestren.forest import (
    _laminar,
    forest_of,
    forest_shapes,
    from_shape,
    tree_shapes,
    vertex_ids,
    vertex_weights,
)
from forestren.region import Nesting
from forestren.renorm import expand_r1
from forestren.series import ONE_PIPOLY, ZERO_PIPOLY

import helpers


def tree_nesting(tree, weights):
    """The Nesting that renormalize builds for one tree."""
    total, pairs, _ = _laminar(forest_of(tree), weights)
    return Nesting.build(total, pairs)


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

    # The Gram matrix of (1 (1)) has vertices 0 and 1 only; before the
    # guard, variable 2 gave a bare KeyError or, in the reference with 2 a
    # pole, a silent value of 1.
    def test_extra_pole_variable_rejected_by_fast_path(self):
        _, _, ctx = ladder2_ctx()
        num = series_monomial((0, 1, 2), 3, (1, 1, 1))
        frac = GermFraction(num, frozenset({0, 1, 2}))
        with pytest.raises(VariableMismatch, match=r"\[2\] are not vertices"):
            ev0_piplus_direct(frac, ctx)

    def test_extra_pole_variable_rejected_by_reference(self):
        _, _, ctx = ladder2_ctx()
        num = series_monomial((0, 1, 2), 3, (1, 1, 1))
        frac = GermFraction(num, frozenset({0, 1, 2}))
        for project in (ev0_piplus, piplus_expand):
            with pytest.raises(VariableMismatch, match="not vertices"):
                project(frac, ctx)

    def test_extra_non_pole_variable_rejected(self):
        _, _, ctx = ladder2_ctx()
        num = series_monomial((0, 1, 2), 2, (1, 0, 1))
        frac = GermFraction(num, frozenset({0, 1}))
        for project in (ev0_piplus_direct, ev0_piplus, piplus_expand):
            with pytest.raises(VariableMismatch, match="not vertices"):
                project(frac, ctx)

    def test_context_requires_positive_definite_gram(self):
        bad = InnerProduct.from_matrix([[1, 2], [2, 1]])
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


def literal_sweep(num, poles, ctx):
    """The telescoping sweep in its literal form: each step substitutes the
    whole numerator and subtracts the previous substitution."""
    images = {}
    steps = []
    for w in sorted(num.occurring()):
        coeffs = project_coeffs(ctx, poles, w)
        img = {w: Fraction(1)}
        for v in sorted(poles):
            c = coeffs[v]
            if c != 0:
                img[v] = img.get(v, Fraction(0)) - c
                steps.append((w, v, c))
        images[w] = {u: c for u, c in img.items() if c != 0}
    if ctx.order_rng is not None:
        ctx.order_rng.shuffle(steps)
    prev = num.subst_linear(images)
    grouped = {}
    for w, v, c in steps:
        img = dict(images[w])
        img[v] = img.get(v, Fraction(0)) + c
        images[w] = {u: cc for u, cc in img.items() if cc != 0}
        cur = num.subst_linear(images)
        diff = cur - prev
        prev = cur
        if diff.is_zero():
            continue
        h = diff.div_by_var(v)
        acc = grouped.get(v)
        grouped[v] = h if acc is None else acc + h
    return grouped


def literal_piplus(num, poles, ctx):
    """piplus_expand's recursion over :func:`literal_sweep`."""
    if not poles:
        return num
    total = TruncSeries.zero(num.variables, num.trunc - len(poles))
    if num.is_zero():
        return total
    grouped = literal_sweep(num, poles, ctx)
    for v in sorted(grouped):
        total = total + literal_piplus(grouped[v], poles - {v}, ctx)
    return total


def sweep_fraction(rng):
    """A random forest context and a fraction with 2-5 poles whose
    numerator truncates 0-2 degrees above the pole count."""
    f, Q = helpers.random_forest(rng, 6, min_vertices=2, allow_fractions=True)
    verts = vertex_ids(f)
    k = rng.randint(2, min(5, len(verts)))
    poles = frozenset(rng.sample(list(verts), k))
    trunc = k + rng.randint(0, 2)
    terms = {}
    for _ in range(rng.randint(1, 12)):
        ev = [0] * len(verts)
        for _ in range(rng.randint(0, trunc)):
            ev[rng.randrange(len(verts))] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[tuple(ev)] = PiPoly.pi2(rng.randint(0, 2), c) + PiPoly.const(1)
    num = TruncSeries.make(verts, trunc, terms)
    return gram(f, Q), GermFraction(num, poles)


class TestIncrementalSweep:
    """The incremental sweep against the literal one, step order for step
    order: the same grouped remainders and the same projected series."""

    ORDERS = (None, 0, 1, 2, 3, 4)  # the fixed order, then five shuffled

    @staticmethod
    def context(g, seed):
        order = None if seed is None else random.Random(seed)
        return ProjectionContext(g, order_rng=order)

    def test_grouped_remainders_match_literal_form(self):
        rng = random.Random(22)
        for _ in range(40):
            g, frac = sweep_fraction(rng)
            num, poles = frac.numerator, frac.poles
            for seed in self.ORDERS:
                want = literal_sweep(num, poles, self.context(g, seed))
                got = projector._grouped_remainders(
                    num, poles, self.context(g, seed)
                )
                assert list(got.items()) == list(want.items())

    def test_piplus_expand_matches_literal_form(self):
        rng = random.Random(23)
        for _ in range(25):
            g, frac = sweep_fraction(rng)
            for seed in self.ORDERS:
                want = literal_piplus(
                    frac.numerator, frac.poles, self.context(g, seed)
                )
                assert piplus_expand(frac, self.context(g, seed)) == want

    def test_sweep_reads_nothing_of_the_region_engine(self):
        engine = {"Nesting", "ev0_tree", "_Packing", "_region_value", "_ev0_sum"}
        assert engine.isdisjoint(projector._grouped_remainders.__code__.co_names)


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

    def test_pinned_ladder_12(self):
        # This golden comes from the fast path itself: no independent
        # oracle reaches degree 12 (quadrature gives only floats, and the
        # subset and telescoping references are far too slow there), so it
        # pins the value against regressions, not a second derivation.
        ladder = unit_tree(helpers.ladder_shape(12), 12)
        assert str(renormalize(*ladder).exact) == "4641*pi^12/65536"

    def test_pinned_corollas(self):
        # Fast-path goldens, like ladder 12 above: no independent oracle
        # reaches them.  The rational-weight corolla has 128-digit terms.
        corolla = unit_tree(helpers.corolla_shape(12), 12)
        assert str(renormalize(*corolla).exact) == (
            "496363916603*pi^12/5748019200"
        )
        f, Q = parse_forest("(3/2 (1) (2/3) (5) (7/4) (2) (9/2) (1/3) (4) (5/2))")
        assert str(renormalize(f, Q).exact) == (
            "198675380577239793591656187867440419967083357757828269939901608"
            "06033949404636559423605430156102725630416956273162491114064091533"
            "*pi^10/"
            "256603015484462309760550114581940684804566045010418993547746185"
            "1731134515363813088674569118773812933099335712534136750080000000"
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 15, 16, 17, 31, 32, 33])
    def test_leaf_power_over_a_full_ladder(self, n):
        # z_leaf^n over every vertex of the unit n-ladder is 1/n!.  After
        # the leaf's own pole is divided out, one exponent reaches n - 1,
        # across the 4/5- and 5/6-bit boundaries of a packed field.
        f, Q = unit_tree(helpers.ladder_shape(n), n)
        ctx = ProjectionContext(gram(f, Q))
        verts = vertex_ids(f)
        leaf = min(verts, key=lambda v: ctx.gram.entry(v, v))
        exps = [n if v == leaf else 0 for v in verts]
        frac = GermFraction(series_monomial(verts, n, exps), frozenset(verts))
        value = ev0_piplus_direct(frac, ctx)
        assert value == PiPoly.const(Fraction(1, math.factorial(n)))
        if n <= 5:
            assert ev0_piplus(frac, ProjectionContext(ctx.gram)) == value

    def test_unit_ladders_match_conjectured_closed_form(self):
        # A conjectured closed form, not a derivation by the engine: unit
        # ladders of 2k vertices give pi^(2k) (1/4)_k / k!, the coefficient
        # of x^k in (1 - pi^2 x)^(-1/4).  No proof is known, but the
        # formula pins these values without copying any engine output.
        coeff = Fraction(1)
        for k in range(1, 8):
            coeff *= Fraction(4 * k - 3, 4 * k)  # (1/4 + k - 1) / k
            ladder = unit_tree(helpers.ladder_shape(2 * k), 2 * k)
            assert renormalize(*ladder).exact == PiPoly.pi2(k, coeff)

    @pytest.mark.parametrize(
        "shape, n, states",
        [
            (helpers.ladder_shape, 8, 1605),
            (helpers.ladder_shape, 10, 10251),
            (helpers.ladder_shape, 12, 65128),
            (helpers.corolla_shape, 10, 7895),
            (helpers.corolla_shape, 12, 49359),
        ],
    )
    def test_state_counts(self, shape, n, states, monkeypatch):
        # the moves and the symbol choice fix how many states a tree visits
        packings = []
        build = region._Packing.of

        def spy(*args):
            packings.append(build(*args))
            return packings[-1]

        monkeypatch.setattr(region._Packing, "of", spy)
        renormalize(*unit_tree(shape(n), n))
        [packing] = packings
        assert len(packing.memo) == states

    def test_ev0_tree_is_scale_free(self):
        # the engine reads the int weights of a Nesting only up to a
        # common factor: entry states hold no region symbol
        rng = random.Random(33)
        for n in (2, 4, 6, 8):
            for shape in tree_shapes(n):
                weights = helpers.random_weights(rng, n, True)
                f, Q = from_shape((shape,), weights)
                [tree] = f.trees
                nest = tree_nesting(tree, vertex_weights(f, Q))
                sevenfold = tuple(7 * w for w in nest.weight)
                want = region.ev0_tree(nest)
                assert region.ev0_tree(nest._replace(weight=sevenfold)) == want

    @pytest.mark.parametrize("shape", tree_shapes(6))
    def test_generic_weights_match_telescoping(self, shape):
        # weights 1 + 1/p over distinct primes: no two subset sums agree,
        # and the Nesting's ints are over the common denominator 30030
        weights = [1 + Fraction(1, p) for p in (2, 3, 5, 7, 11, 13)]
        f, Q = from_shape((shape,), weights)
        assert renormalize(f, Q).exact == ev0_piplus(*expand_r1(f, Q))

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

        monkeypatch.setattr(InnerProduct, "solve", refuse)
        monkeypatch.setattr(projector, "project_coeffs", refuse)
        assert [renormalize(*fQ).exact for fQ in forests] == want
        for (ctx, frac), ref in zip(fracs, refs):
            assert ev0_piplus_direct(frac, ctx) == ref
            assert not ctx._coeff_cache

    def test_tree_path_never_touches_the_gram_layer(self, monkeypatch):
        forests = [
            unit_tree(helpers.ladder_shape(n), n) for n in (2, 4, 6, 8)
        ] + [
            unit_tree(helpers.corolla_shape(n), n) for n in (2, 4, 6, 8)
        ] + [parse_forest("(2 (1 (3)) (1)) (1 (5)) (3/2 (1/2))")]
        want = [renormalize(*fQ).exact for fQ in forests]

        def refuse(*args, **kwargs):
            raise AssertionError("the tree path reached the Gram layer")

        monkeypatch.setattr(forestren.forest, "gram", refuse)
        monkeypatch.setattr(forestren.renorm, "gram", refuse)
        monkeypatch.setattr(InnerProduct, "is_positive_definite", refuse)
        monkeypatch.setattr(Nesting, "of", refuse)
        monkeypatch.setattr(projector, "ev0_piplus_direct", refuse)
        assert [renormalize(*fQ).exact for fQ in forests] == want

    def test_reference_never_reaches_fast_path(self, monkeypatch):
        rng = random.Random(10)
        fracs = [top_degree_fraction(rng, 5) for _ in range(20)]
        want = [
            ev0_piplus_direct(fr, ProjectionContext(c.gram)) for c, fr in fracs
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("the reference reached the fast path")

        monkeypatch.setattr(region, "_region_value", refuse)
        monkeypatch.setattr(Nesting, "of", refuse)
        for (ctx, frac), value in zip(fracs, want):
            assert ev0_piplus(frac, ctx) == value
            assert not ctx._monomial_memo


class TestNesting:
    def test_reads_forest_order(self):
        f, Q = parse_forest("(1 (2) (3 (4)))")
        nest = Nesting.of(gram(f, Q))
        order = sorted(nest.pos, key=nest.pos.get)
        assert order == [0, 2, 3, 1]  # decreasing subtree weight
        assert nest.weight == (10, 7, 4, 2)
        root, mid, leaf4, leaf2 = range(4)
        assert nest.anc[leaf4] == 1 << root | 1 << mid
        assert nest.anc[leaf2] == 1 << root
        assert nest.desc[root] == 1 << mid | 1 << leaf4 | 1 << leaf2

    def test_positive_definite_non_nesting_gram_rejected(self):
        two = InnerProduct.from_matrix([[2, 1], [1, 2]])
        ctx = ProjectionContext(two)  # det 3 > 0
        num = series_monomial((0, 1), 2, (1, 1))
        frac = GermFraction(num, frozenset({0, 1}))
        with pytest.raises(NotProperlyDecorated, match="neither 0 nor"):
            ev0_piplus_direct(frac, ctx)
        ev0_piplus(frac, ctx)  # the reference takes any positive-definite Gram

    def test_ancestors_must_form_a_chain(self):
        # vertex 2 lies below both 0 and 1, which are disjoint
        g = InnerProduct.from_matrix([[3, 0, 1], [0, 3, 1], [1, 1, 1]])
        with pytest.raises(NotProperlyDecorated, match="do not nest"):
            Nesting.of(g)

    @pytest.mark.parametrize("random_weights", [False, True])
    def test_tree_walk_matches_gram(self, random_weights):
        # weights in 1..3 tie many subtree weights, so the order's
        # tie-break by vertex id is exercised too; fractional weights
        # give subtree weights with unlike denominators
        rng = random.Random(31)
        for n in range(1, 9):
            for shape in tree_shapes(n):
                draws = (
                    [[rng.randint(1, 3) for _ in range(n)],
                     helpers.random_weights(rng, n, True)]
                    if random_weights
                    else [[1] * n]
                )
                for weights in draws:
                    f, Q = from_shape((shape,), weights)
                    want = Nesting.of(gram(f, Q))
                    [tree] = f.trees
                    got = tree_nesting(tree, vertex_weights(f, Q))
                    assert got == want == Nesting.of(gram_from_inner(f, Q))
                    assert {type(w) for w in got.weight + want.weight} == {int}


def test_tree_values_match_the_whole_forest_expansion():
    # renormalize reads each tree's Nesting off the tree; ev0_piplus_direct
    # reads one off the Gram matrix of the whole forest
    rng = random.Random(32)
    for n in (2, 4, 6):
        for shape in forest_shapes(n):
            for weights in ([1] * n, helpers.random_weights(rng, n, True)):
                f, Q = from_shape(shape, weights)
                want = ev0_piplus_direct(*expand_r1(f, Q))
                assert renormalize(f, Q).exact == want


def test_projector_does_not_import_forest():
    # The fast path sees a Nesting; walks over trees belong to renorm.
    for module in (projector, region):
        assert "forest" not in helpers.imported_modules(module)
    # and the region engine runs without the telescoping reference
    assert "projector" not in helpers.imported_modules(region)
