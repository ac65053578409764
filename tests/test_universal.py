"""Universal-property fold: structural recursion into user-supplied targets."""

import random
from fractions import Fraction

import pytest

from forestren import (
    BetaPhiTarget,
    EMPTY_FOREST,
    InnerProduct,
    LocalityViolation,
    RegularizedIntegral,
    basis,
    branched,
    fold,
    form,
    parse_forest,
    regularize,
    symbolic_integral_target,
)
from forestren.forest import concat, decorations, from_shape, graft, vertex_ids
from forestren.pairing import ZERO_FORM

import helpers


class TestSymbolicTarget:
    def test_unit(self):
        Q = InnerProduct.identity(0)
        out = fold(EMPTY_FOREST, symbolic_integral_target(Q))
        assert out == RegularizedIntegral.make(ZERO_FORM, ())

    def test_action_on_unit_is_single_vertex(self):
        Q = InnerProduct.identity(1)
        t = symbolic_integral_target(Q)
        assert t.action_independent(basis(0), t.unit())
        assert t.action(basis(0), t.unit()) == RegularizedIntegral.make(
            basis(0), (basis(0),)
        )

    def test_single_vertex(self):
        f, Q = parse_forest("(1)")
        assert fold(f, symbolic_integral_target(Q)) == regularize(f, Q)

    def test_ladder_unfolds_to_nested_action(self):
        f, Q = parse_forest("(1 (1))")
        t = symbolic_integral_target(Q)
        by_hand = t.action(basis(0), t.action(basis(1), t.unit()))
        assert fold(f, t) == by_hand
        assert fold(f, t) == regularize(f, Q)

    def test_matches_regularize_on_all_small_shapes(self):
        rng = random.Random(6)
        from forestren.forest import shape_size

        for shape in helpers.shapes_up_to(5):
            n = shape_size(shape)
            if n == 0:
                continue
            f, Q = from_shape(shape, helpers.random_weights(rng, n))
            assert fold(f, symbolic_integral_target(Q)) == regularize(f, Q)


class TestCharConditions:
    def test_image_independence_follows_input_independence(self):
        rng = random.Random(9)
        for _ in range(15):
            f1, f2, Q, _ = helpers.independent_pair(rng, 3)
            t = symbolic_integral_target(Q)
            assert t.independent(fold(f1, t), fold(f2, t))

    def test_multiplicative_over_concatenation(self):
        rng = random.Random(10)
        for _ in range(15):
            f1, f2, Q, cat = helpers.independent_pair(rng, 3)
            t = symbolic_integral_target(Q)
            assert fold(cat, t) == t.product(fold(f1, t), fold(f2, t))

    def test_action_compatible_with_grafting(self):
        rng = random.Random(12)
        for _ in range(15):
            f, Q = helpers.random_forest(rng, 3)
            n = len(vertex_ids(f))
            omega = basis(n)
            Qx = helpers.merge_diagonal(
                Q, InnerProduct.diagonal({n: rng.randint(1, 5)})
            )
            t = symbolic_integral_target(Qx)
            grafted = graft(omega, f, Qx)
            assert fold(
                EMPTY_FOREST.__class__((grafted,)), t
            ) == t.action(omega, fold(f, t))

    def test_concatenation_order_irrelevant(self):
        rng = random.Random(14)
        f1, f2, Q, _ = helpers.independent_pair(rng, 3)
        t = symbolic_integral_target(Q)
        assert fold(concat(f1, f2, Q), t) == fold(concat(f2, f1, Q), t)


class TestBranched:
    def test_unit(self):
        assert branched(lambda x: x, EMPTY_FOREST, InnerProduct.identity(0)) == (
            ZERO_FORM
        )

    def test_identity_phi_sums_decorations(self):
        f, Q = parse_forest("(1 (1))")
        assert branched(lambda x: x, f, Q) == form({0: 1, 1: 1})

    def test_identity_phi_on_random_forests(self):
        rng = random.Random(15)
        for _ in range(15):
            f, Q = helpers.random_forest(rng, 5)
            total = ZERO_FORM
            for d in decorations(f).values():
                total = total + d
            assert branched(lambda x: x, f, Q) == total

    def test_grafting_rule(self):
        # hat-phi(B+^omega(F)) = phi(omega + hat-phi(F))
        rng = random.Random(16)
        scale = Fraction(3, 2)
        phi = lambda x: x.scaled(scale)  # noqa: E731
        for _ in range(10):
            f, Q = helpers.random_forest(rng, 3)
            n = len(vertex_ids(f))
            omega = basis(n)
            Qx = helpers.merge_diagonal(Q, InnerProduct.diagonal({n: 1}))
            grafted = graft(omega, f, Qx)
            lhs = branched(phi, EMPTY_FOREST.__class__((grafted,)), Qx)
            rhs = phi(omega + branched(phi, f, Qx))
            assert lhs == rhs


class TestLocalityGuards:
    def test_phi_breaking_locality_is_caught(self):
        # A constant map collapses the two leaves onto the same axis: their
        # images pair nontrivially, so the product step must refuse.
        f, Q = parse_forest("(1 (1) (1))")
        with pytest.raises(LocalityViolation) as info:
            branched(lambda x: basis(1), f, Q)
        assert str(info.value) == (
            "images of the tree rooted at 2 and of its preceding factors are"
            " not independent in the target"
        )

    def test_improper_decoration_is_caught_mid_fold(self):
        f, _ = parse_forest("(1 (1))")
        skew = InnerProduct.from_matrix(
            [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
        )
        with pytest.raises(LocalityViolation) as info:
            fold(f, symbolic_integral_target(skew))
        assert str(info.value) == (
            "decoration of vertex 0 is not independent of the image of its"
            " children"
        )

    def test_custom_target_checks_run_eagerly(self):
        calls = []

        class Recorder(BetaPhiTarget):
            def action_independent(self, omega, u):
                calls.append((omega, u))
                return super().action_independent(omega, u)

        f, Q = parse_forest("(1 (1))")
        fold(f, Recorder(lambda x: x, Q))
        assert len(calls) == 2

    def test_calls_follow_the_forest_structure(self):
        # each tree folds its children, then its root acts; trees multiply
        # left to right, each checked against the product so far
        calls = []

        class Recorder(BetaPhiTarget):
            pass

        for name in ("unit", "independent", "product", "action_independent",
                     "action"):
            def record(self, *args, _name=name):
                calls.append(_name)
                return getattr(BetaPhiTarget, _name)(self, *args)
            setattr(Recorder, name, record)

        f, Q = parse_forest("(1 (1)) (1)")
        assert fold(f, Recorder(lambda x: x, Q)) == form({0: 1, 1: 1, 2: 1})
        graft_leaf = ["unit", "action_independent", "action"]
        assert calls == [
            *graft_leaf, "action_independent", "action",  # tree rooted at 0
            *graft_leaf,  # tree rooted at 2
            "independent", "product",
        ]
