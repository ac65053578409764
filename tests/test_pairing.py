import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from forestren import (
    IndexOutOfRange,
    InnerProduct,
    LinearForm,
    SingularGram,
    basis,
    check_properly_decorated,
    form,
    gram,
    gram_from_inner,
    inner,
    is_independent,
)
from forestren.forest import from_shape, tree, forest_of
import forestren.forest
import forestren.pairing
from forestren.pairing import ZERO_FORM

import helpers


coeffs = strat.dictionaries(
    strat.integers(0, 3),
    strat.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4,
)
forms = coeffs.map(LinearForm.from_coeffs)


class TestLinearForm:
    @hypothesis.given(forms, forms, forms)
    def test_abelian_group(self, a, b, c):
        assert (a + b) == (b + a)
        assert ((a + b) + c) == (a + (b + c))
        assert (a + ZERO_FORM) == a
        assert (a - a) == ZERO_FORM

    @hypothesis.given(forms)
    def test_scaling(self, a):
        assert a.scaled(0) == ZERO_FORM
        assert a.scaled(1) == a
        assert 2 * a == a + a
        assert a.scaled(Fraction(-1)) == -a

    def test_from_coeffs_drops_zeros(self):
        lf = LinearForm.from_coeffs({0: 1, 1: 0, 2: Fraction(0)})
        assert lf.support == frozenset({0})
        assert lf.coeff(1) == 0

    def test_str(self):
        assert str(ZERO_FORM) == "0"
        assert str(basis(0)) == "e0"
        assert str(form({0: 1, 1: 2})) == "e0 + 2*e1"
        assert str(form({0: -1})) == "-e0"
        assert str(form({0: Fraction(1, 2), 3: -2})) == "1/2*e0 - 2*e3"


class TestInnerProduct:
    def test_entry_symmetry_and_default_zero(self):
        Q = InnerProduct.from_matrix([[2, 1], [1, 3]])
        assert Q.entry(0, 1) == Q.entry(1, 0) == 1
        assert Q.entry(0, 5) == 0

    def test_from_matrix_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            InnerProduct.from_matrix([[1, 2], [3, 1]])

    def test_diagonal_and_identity(self):
        Q = InnerProduct.diagonal({0: 2, 1: Fraction(1, 3)})
        assert Q.is_diagonal()
        assert Q.entry(1, 1) == Fraction(1, 3)
        assert InnerProduct.identity(3).entry(2, 2) == 1

    def test_positive_definite(self):
        assert InnerProduct.from_matrix([[2, 1], [1, 2]]).is_positive_definite()
        assert not InnerProduct.from_matrix([[1, 2], [2, 1]]).is_positive_definite()
        assert not InnerProduct.diagonal({0: 0}).is_positive_definite()

    @pytest.mark.parametrize(
        "rows",
        [[[0, 1], [1, 1]], [[-1, 0], [0, 1]], [[2, 0, 1], [0, -3, 0], [1, 0, 2]]],
    )
    def test_not_positive_definite_with_nonpositive_pivot(self, rows):
        # a zero leading pivot of a nonsingular matrix, a negative first
        # pivot, and a negative pivot after a positive one
        assert not InnerProduct.from_matrix(rows).is_positive_definite()

    def test_scaled(self):
        Q = InnerProduct.diagonal({0: 1, 1: 2}).scaled(Fraction(3, 2))
        assert Q.entry(1, 1) == 3

    @hypothesis.given(forms, forms, forms)
    def test_inner_is_symmetric_bilinear(self, a, b, c):
        Q = InnerProduct.from_matrix([[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
        assert inner(Q, a, b) == inner(Q, b, a)
        assert inner(Q, a + b, c) == inner(Q, a, c) + inner(Q, b, c)
        assert inner(Q, a.scaled(3), b) == 3 * inner(Q, a, b)

    def test_inner_unknown_index(self):
        Q = InnerProduct.identity(2)
        with pytest.raises(IndexOutOfRange):
            inner(Q, basis(7), basis(0))
        # the message names the least index outside, in a, then in b
        with pytest.raises(IndexOutOfRange, match="^index 5 outside"):
            inner(Q, form({9: 1, 0: 1, 5: 2}), basis(3))
        with pytest.raises(IndexOutOfRange, match="^index 4 outside"):
            inner(Q, basis(1), form({8: 1, 4: 1}))


def test_is_independent_examples():
    Q = InnerProduct.identity(2)
    assert is_independent(Q, basis(0), basis(1))
    assert not is_independent(Q, basis(0), basis(0))
    # equal norms make the sum and difference orthogonal
    assert is_independent(Q, form({0: 1, 1: 1}), form({0: 1, 1: -1}))


def test_check_properly_decorated():
    # canonical-mode construction is properly decorated by design
    rng = random.Random(0)
    for _ in range(10):
        f, Q = helpers.random_forest(rng, 4)
        assert check_properly_decorated(f, Q)

    Q = InnerProduct.identity(3)
    bad_ladder = forest_of(tree(0, basis(0), [tree(1, basis(0))]))
    assert not check_properly_decorated(bad_ladder, Q)
    corolla = forest_of(
        tree(0, basis(0), [tree(1, basis(1)), tree(2, basis(2))])
    )
    assert check_properly_decorated(corolla, Q)
    zero_deco = forest_of(tree(0, ZERO_FORM))
    assert not check_properly_decorated(zero_deco, Q)


class TestGram:
    def test_ladder2_overlap(self):
        f, Q = from_shape(helpers.ladder_shape(2), [1, 1])
        G = gram(f, Q)
        # root subtree sum e0+e1 (norm 2), leaf e1 (norm 1), overlap {leaf}
        assert G.entry(0, 0) == 2
        assert G.entry(1, 1) == 1
        assert G.entry(0, 1) == 1

    def test_gram_matches_bilinear_route(self):
        # Dual derivation: overlap counting vs expanding the forms under Q.
        rng = random.Random(5)
        for _ in range(25):
            f, Q = helpers.random_forest(rng, 5, allow_fractions=True)
            a = gram(f, Q)
            b = gram_from_inner(f, Q)
            assert a.indices == b.indices
            assert a.entries == b.entries

    def test_gram_stores_the_nested_pairs_only(self):
        # a vertex's own entry and one per ancestor: n + sum of the depths
        rng = random.Random(5)
        for _ in range(25):
            f, Q = helpers.random_forest(rng, 5, allow_fractions=True)
            depths = {}
            for node in forestren.forest.iter_vertices(f):  # parents first
                for child in node.children:
                    depths[child.root_id] = depths.get(node.root_id, 0) + 1
            G = gram(f, Q)
            assert len(G.entries) == len(G.indices) + sum(depths.values())
            assert all(value != 0 for _, value in G.entries)
            assert G == gram_from_inner(f, Q)

    def test_positive_definite_on_forests(self):
        rng = random.Random(6)
        for _ in range(10):
            f, Q = helpers.random_forest(rng, 5)
            assert gram(f, Q).is_positive_definite()

    def test_det_and_scaled(self):
        f, Q = from_shape(helpers.ladder_shape(2), [1, 1])
        G = gram(f, Q)
        assert G.det() == 1  # 2*1 - 1*1
        assert G.scaled(2).det() == 4

    def test_det_row_swap_and_singular(self):
        matrix = InnerProduct.from_matrix
        assert matrix([[0, 1], [1, 0]]).det() == -1
        assert matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
        assert matrix([[0, 2, 0], [2, 0, 0], [0, 0, 3]]).det() == -12
        assert matrix([[1, 2], [2, 4]]).det() == 0
        assert matrix([[0, 0], [0, 1]]).det() == 0
        assert matrix([]).det() == 1

    def test_gram_from_inner_ignores_the_overlap_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the reference must not use this")

        f, Q = from_shape(helpers.ladder_shape(3), [1, 2, 3])
        want = gram(f, Q)
        monkeypatch.setattr(forestren.forest, "vertex_weights", forbidden)
        assert gram_from_inner(f, Q) == want

    def test_solve_roundtrip(self):
        f, Q = from_shape(helpers.ladder_shape(3), [1, 2, 3])
        G = gram(f, Q)
        sub = list(G.indices)
        rhs = [Fraction(1), Fraction(0), Fraction(2)]
        x = G.solve(sub, rhs)
        for i, v in enumerate(sub):
            assert sum(G.entry(v, w) * x[j] for j, w in enumerate(sub)) == rhs[i]

    def test_singular_solve_raises(self):
        G = InnerProduct.from_matrix([[1, 1], [1, 1]])
        assert not G.is_positive_definite()
        with pytest.raises(SingularGram):
            G.solve([0, 1], [Fraction(1), Fraction(0)])


def test_pairing_does_not_import_forest():
    # Linear algebra sits below the forest layer: walks over forests belong
    # in forest, and importing it here would be a cycle.
    assert "forest" not in helpers.imported_modules(forestren.pairing)
