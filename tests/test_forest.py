import random
from fractions import Fraction

import pytest

from forestren import (
    DecoratedForest,
    EMPTY_FOREST,
    InnerProduct,
    LocalityViolation,
    NonPositiveWeight,
    NotProperlyDecorated,
    ParseError,
    basis,
    canonical,
    concat,
    degree,
    forest_shapes,
    form,
    from_shape,
    graft,
    parse_forest,
    serialize,
    subtree_sums,
    tree_shapes,
)
from forestren.forest import (
    MAX_NESTING,
    forest_of,
    shape_size,
    tree,
    vertex_ids,
)

import helpers


class TestParsing:
    def test_empty_forest(self):
        f, Q = parse_forest("1")
        assert f.is_empty()
        assert degree(f) == 0

    def test_single_vertex(self):
        f, Q = parse_forest("(3/2)")
        assert degree(f) == 1
        (vid,) = vertex_ids(f)
        assert Q.entry(vid, vid) == Fraction(3, 2)

    def test_ladder(self):
        f, Q = parse_forest("(1 (2))")
        sums = subtree_sums(f)
        assert sums[0] == form({0: 1, 1: 1})
        assert sums[1] == basis(1)
        assert Q.entry(0, 0) == 1 and Q.entry(1, 1) == 2

    def test_multi_tree_forest(self):
        f, _ = parse_forest("(1) (2 (3))")
        assert len(f.trees) == 2
        assert degree(f) == 3

    @pytest.mark.parametrize(
        "text",
        ["(1", "(1))", "(", ")", "(x)", "(1 2)", "[1,0]", ""],
    )
    def test_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse_forest(text)

    @pytest.mark.parametrize(
        "token, value",
        [
            ("1e3", Fraction(1000)),
            ("2.5", Fraction(5, 2)),
            ("1E-2", Fraction(1, 100)),
            ("1e+2", Fraction(100)),
            # MAX_DIGITS digits in the numerator or the reduced denominator
            ("1e4299", Fraction(10**4299)),
            ("1e-4299", Fraction(1, 10**4299)),
            ("1.5e-4299", Fraction(3, 2 * 10**4299)),
        ],
    )
    def test_decimal_and_exponent_weights(self, token, value):
        # a weight, a Q= entry and a vector coordinate parse alike
        f, Q = parse_forest(f"({token})")
        assert Q.entry(0, 0) == value
        f, Q = parse_forest(f"Q={token}\n([1])")
        assert Q.entry(0, 0) == value
        f, Q = parse_forest(f"Q=1\n([{token}])")
        assert f.trees[0].decoration.coeff(0) == value

    @pytest.mark.parametrize("text", ["(0)", "(-1)", "(1 (-2/3))"])
    def test_weights_must_be_positive(self, text):
        with pytest.raises(NonPositiveWeight):
            parse_forest(text)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="forest nesting is too deep"):
            parse_forest("(1 " * 5000 + ")" * 5000)

    def test_nesting_bound_is_independent_of_the_caller_stack(self):
        def nested(calls, text):
            return nested(calls - 1, text) if calls else parse_forest(text)

        deepest = "(1 " * MAX_NESTING + ")" * MAX_NESTING
        f, _ = nested(300, deepest)
        assert degree(f) == MAX_NESTING
        with pytest.raises(ParseError, match="^forest nesting is too deep$"):
            nested(300, "(1 " + deepest + ")")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input"),
            (" \n ", "empty input"),
            ("(1 [)", "unexpected character '['"),
            ("(1) ]", "unexpected character ']'"),
            ("(x)", "invalid rational 'x'"),
            ("(1/0)", "invalid rational '1/0'"),
            (
                "(" + "x" * 30 + ")",
                "invalid rational 'xxxxxxxxxxxxxxxxxxxx'... (30 characters)",
            ),
            ("(1", "unexpected end of input"),
            ("(1 (2)", "unexpected end of input"),
            ("(", "unexpected end of input"),
            (")", "expected '(', got ')'"),
            ("(1) 2", "expected '(', got '2'"),
            ("(1 2)", "expected ')', got '2'"),
            ("(1 (2) x)", "expected ')', got 'x'"),
            ("([1,0])", "vector literal requires a leading Q= line"),
            ("Q=1;;\n([1])", "empty row in Q matrix"),
            ("Q=1,x\n([1])", "invalid rational 'x'"),
            ("Q=1,2\n([1])", "bad Q matrix: matrix is not square"),
            (
                "Q=1,2;3,1\n([1,0])",
                "bad Q matrix: matrix is not symmetric at (0,1)",
            ),
            ("Q=1,2;2,1\n([1,0])", "Q matrix must be positive definite"),
            ("Q=1\n(1)", "expected vector literal in explicit mode, got '1'"),
            ("Q=1\n([ ])", "empty vector literal"),
            ("Q=1\n([x])", "invalid rational 'x'"),
            ("Q=1,0;0,1\n([1])", "vector has 1 entries; Q is 2x2"),
            # an exponent is refused before Fraction builds 10**exponent
            ("(1e99999999)", "invalid rational '1e99999999'"),
            ("(1e-99999999)", "invalid rational '1e-99999999'"),
            ("Q=1e99999999\n([1])", "invalid rational '1e99999999'"),
            ("Q=1e-99999999\n([1])", "invalid rational '1e-99999999'"),
            ("Q=1\n([1e99999999])", "invalid rational '1e99999999'"),
            ("Q=1\n([1e-99999999])", "invalid rational '1e-99999999'"),
            pytest.param(
                "(1e" + "9" * 5000 + ")",
                "invalid rational '1e999999999999999999'... (5002 characters)",
                id="5000-digit exponent",
            ),
            # one digit past MAX_DIGITS in the numerator or the denominator
            ("(1e4300)", "invalid rational '1e4300'"),
            ("(1e-4300)", "invalid rational '1e-4300'"),
            ("(1.5e-4300)", "invalid rational '1.5e-4300'"),
            pytest.param(
                "(" + "9" * 4300 + ".5)",
                "invalid rational '99999999999999999999'... (4302 characters)",
                id="4301-digit numerator",
            ),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_forest(text)
        assert str(exc.value) == message


class TestExplicitMode:
    def test_parse_and_weights(self):
        f, Q = parse_forest("Q=1,0;0,2\n([1,0] ([0,1]))")
        assert Q.entry(1, 1) == 2
        assert not f.is_empty()

    def test_whitespace_matrix_rows(self):
        f1, Q1 = parse_forest("Q=1 0; 0 2\n([1,0] ([0,1]))")
        f2, Q2 = parse_forest("Q=1,0;0,2\n([1,0] ([0,1]))")
        assert canonical(f1, Q1) == canonical(f2, Q2)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotProperlyDecorated):
            parse_forest("Q=1,0;0,1\n([1,0] ([1,1]))")

    def test_zero_vector_rejected(self):
        with pytest.raises(NotProperlyDecorated):
            parse_forest("Q=1,0;0,1\n([0,0] ([0,1]))")

    def test_wrong_vector_length(self):
        with pytest.raises(ParseError):
            parse_forest("Q=1,0;0,1\n([1,0,0])")

    def test_asymmetric_matrix(self):
        with pytest.raises(ParseError):
            parse_forest("Q=1,2;3,1\n([1,0] ([0,1]))")

    def test_non_positive_definite_matrix(self):
        with pytest.raises(ParseError):
            parse_forest("Q=1,2;2,1\n([1,0] ([0,1]))")

    def test_vector_needs_q_line(self):
        with pytest.raises(ParseError):
            parse_forest("([1,0])")

    def test_roundtrip_non_basis_decorations(self):
        # orthogonal but not axis-aligned: e0+e1 and e0-e1 under Q=I
        text = "Q=1,0;0,1\n([1,1]) ([1,-1])"
        f, Q = parse_forest(text)
        out = serialize(f, Q)
        f2, Q2 = parse_forest(out)
        assert canonical(f, Q) == canonical(f2, Q2)


class TestSerialize:
    def test_golden(self):
        f, Q = parse_forest("(1 (1))")
        assert serialize(f, Q) == "(1 (1))"

    def test_sibling_order_is_canonical(self):
        a = serialize(*parse_forest("(1 (2) (3))"))
        b = serialize(*parse_forest("(1 (3) (2))"))
        assert a == b

    def test_tree_order_is_canonical(self):
        a = serialize(*parse_forest("(5) (2 (7))"))
        b = serialize(*parse_forest("(2 (7)) (5)"))
        assert a == b

    def test_empty(self):
        assert serialize(EMPTY_FOREST, InnerProduct.diagonal({})) == "1"

    def test_roundtrip_random(self):
        rng = random.Random(1)
        for _ in range(30):
            f, Q = helpers.random_forest(rng, 6, allow_fractions=True)
            text = serialize(f, Q)
            f2, Q2 = parse_forest(text)
            assert serialize(f2, Q2) == text
            assert canonical(f, Q) == canonical(f2, Q2)

    def test_deep_ladder_roundtrip(self):
        # rendering walks iteratively, and the parser keeps its own stack
        text = "(" + " (".join(str(k % 7 + 1) for k in range(900)) + ")" * 900
        f, Q = parse_forest(text)
        out = serialize(f, Q)
        assert out == text
        f2, Q2 = parse_forest(out)
        assert canonical(f2, Q2) == canonical(f, Q)


class TestCanonical:
    def test_invariant_under_vertex_relabeling(self):
        w = [Fraction(2), Fraction(3)]
        f1, Q1 = from_shape(helpers.ladder_shape(2), w)
        f2, Q2 = from_shape(helpers.ladder_shape(2), w, id_start=17)
        assert canonical(f1, Q1) == canonical(f2, Q2)

    def test_sensitive_to_weights(self):
        f1, Q1 = from_shape(helpers.ladder_shape(2), [1, 2])
        f2, Q2 = from_shape(helpers.ladder_shape(2), [2, 1])
        assert canonical(f1, Q1) != canonical(f2, Q2)

    def test_sensitive_to_shape(self):
        f1, Q1 = from_shape(helpers.ladder_shape(3), [1, 1, 1])
        f2, Q2 = from_shape(helpers.corolla_shape(3), [1, 1, 1])
        assert canonical(f1, Q1) != canonical(f2, Q2)


class TestStructure:
    def test_graft_extends_degree(self):
        f, Q0 = parse_forest("(1) (2)")
        Q = helpers.merge_diagonal(Q0, InnerProduct.diagonal({5: Fraction(3)}))
        t = graft(basis(5), f, Q)
        assert t.vertex_count() == 3
        assert t.decoration == basis(5)
        grafted = forest_of(t)
        assert subtree_sums(grafted)[t.root_id] == form({0: 1, 1: 1, 5: 1})

    def test_graft_locality_guard(self):
        f, Q = parse_forest("(1)")
        with pytest.raises(LocalityViolation):
            graft(basis(0), f, Q)  # same direction as the existing vertex

    def test_graft_id_collision(self):
        f, Q0 = parse_forest("(1)")
        Q = helpers.merge_diagonal(Q0, InnerProduct.diagonal({9: Fraction(1)}))
        with pytest.raises(ValueError):
            graft(basis(9), f, Q, root_id=0)

    def test_concat_additive_degree(self):
        rng = random.Random(2)
        f1, f2, Q, fc = helpers.independent_pair(rng, 3)
        assert degree(fc) == degree(f1) + degree(f2)

    def test_concat_locality_guard(self):
        f1 = forest_of(tree(0, basis(0)))
        f2 = forest_of(tree(1, basis(0)))
        with pytest.raises(LocalityViolation):
            concat(f1, f2, InnerProduct.identity(1))

    def test_concat_id_collision(self):
        f1 = forest_of(tree(0, basis(0)))
        f2 = forest_of(tree(0, basis(1)))
        with pytest.raises(ValueError):
            concat(f1, f2, InnerProduct.identity(2))

    def test_subtree_sums_corolla(self):
        f, _ = parse_forest("(1 (2) (3))")
        sums = subtree_sums(f)
        assert sums[0] == form({0: 1, 1: 1, 2: 1})
        assert sums[1] == basis(1)
        assert sums[2] == basis(2)

    def test_walks_handle_deep_trees(self):
        t = tree(0, basis(0))
        for v in range(1, 3000):
            t = tree(v, basis(v), [t])
        f = forest_of(t)
        assert t.vertex_count() == degree(f) == 3000
        sums = subtree_sums(f)
        assert sums[2999] == form({v: 1 for v in range(3000)})
        assert sums[0] == basis(0)


class TestShapeCatalog:
    def test_tree_shape_counts(self):
        # unlabeled rooted trees: 1, 1, 2, 4, 9, 20
        assert [len(tree_shapes(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]

    def test_forest_shape_counts(self):
        # unlabeled rooted forests: 1, 2, 4, 9, 20, 48, 115, 286, ...
        counts = [len(forest_shapes(n)) for n in range(1, 12)]
        assert counts == [1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]

    def test_shapes_are_distinct_forests(self):
        seen = set()
        for shape in forest_shapes(5):
            f, Q = from_shape(shape, [1] * 5)
            key = canonical(f, Q)
            assert key not in seen
            seen.add(key)

    def test_from_shape_preorder_weights(self):
        f, Q = from_shape(helpers.ladder_shape(3), [5, 7, 11])
        # ids follow preorder: root 0 weight 5, then 1, then 2
        assert [Q.entry(i, i) for i in range(3)] == [5, 7, 11]

    def test_from_shape_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            from_shape(helpers.ladder_shape(2), [1, 2, 3])

    def test_from_shape_rejects_bad_weight(self):
        with pytest.raises(NonPositiveWeight):
            from_shape(helpers.ladder_shape(2), [1, 0])
