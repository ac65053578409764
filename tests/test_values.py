"""Value semantics of the package's record classes.

Each class compares by its fields against its own class only, hashes its
field tuple (``TruncSeries`` leaves ``terms`` out, and ``ProjectionContext``
is unhashable), refuses assignment once built (``ProjectionContext`` aside),
takes its fields by position or keyword, and survives copy and pickle.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from forestren import (
    BetaPhiTarget,
    DecoratedForest,
    DecoratedTree,
    GermFraction,
    InnerProduct,
    LinearForm,
    NumericAssignment,
    PiPoly,
    ProjectionContext,
    RegularizedIntegral,
    RenormalizedValue,
    SingularGram,
    SymbolicIntegralTarget,
    TruncSeries,
    VariableMismatch,
)

HALF = Fraction(1, 2)
FORM = LinearForm(((0, Fraction(1)), (2, HALF)))
Q = InnerProduct((0, 1), (((0, 0), Fraction(2)), ((1, 1), Fraction(3))))
GRAM = InnerProduct.from_matrix([[3, 1], [1, 1]])
POLY = PiPoly((Fraction(0), HALF))
SERIES = TruncSeries((0, 1), 2, {(1, 0): POLY})
LEAF = DecoratedTree(1, LinearForm(((1, Fraction(1)),)), ())
TREE = DecoratedTree(0, LinearForm(((0, Fraction(1)),)), (LEAF,))


def negate(form):
    return -form


# Each class with its fields, in order, as keyword arguments.
CASES = [
    (LinearForm, {"items": FORM.items}),
    (InnerProduct, {"indices": Q.indices, "entries": Q.entries}),
    (PiPoly, {"coeffs": POLY.coeffs}),
    (TruncSeries, {"variables": (0, 1), "trunc": 2, "terms": {(1, 0): POLY}}),
    (DecoratedTree, {"root_id": 0, "decoration": FORM, "children": (LEAF,)}),
    (DecoratedForest, {"trees": (TREE, LEAF)}),
    (GermFraction, {"numerator": SERIES, "poles": frozenset({0})}),
    (RegularizedIntegral, {"exponent": FORM, "factors": (FORM,)}),
    (RenormalizedValue, {"exact": POLY}),
    (NumericAssignment, {"values": {0: 0.5, 1: 2.0}}),
    (SymbolicIntegralTarget, {"Q": Q}),
    (BetaPhiTarget, {"phi": negate, "Q": Q}),
    (ProjectionContext, {"gram": GRAM, "order_rng": None}),
]
ids = [cls.__name__ for cls, _ in CASES]
# hashing fails on the dict field, as it did for the frozen dataclass
UNHASHABLE = (NumericAssignment, ProjectionContext)


def build(cls, fields):
    """Two objects from equal but distinct field values: by position, and
    by keyword."""
    return cls(*copy.deepcopy(list(fields.values()))), cls(**fields)


@pytest.mark.parametrize("cls, fields", CASES, ids=ids)
class TestValueSemantics:
    def test_equal_fields_equal_objects(self, cls, fields):
        a, b = build(cls, fields)
        assert a == b and not a != b
        if cls is TruncSeries:
            assert hash(a) == hash(b)
        elif cls not in UNHASHABLE:
            assert hash(a) == hash(b) == hash(tuple(fields.values()))
        for name, value in fields.items():
            assert getattr(b, name) is value

    def test_other_class_same_fields_unequal(self, cls, fields):
        a, _ = build(cls, fields)
        lookalike = type("Lookalike", (cls,), {"__slots__": ()})
        b = lookalike(**fields)
        assert a != b and b != a
        assert a != tuple(fields.values())
        assert a.__eq__(tuple(fields.values())) is NotImplemented

    def test_fields_are_frozen(self, cls, fields):
        a, _ = build(cls, fields)
        if cls is ProjectionContext:
            a.order_rng = None  # the one field the subset oracle reassigns
            return
        for name in [*fields, "undeclared"]:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)

    def test_copy_and_pickle(self, cls, fields):
        a, _ = build(cls, fields)
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_repr_names_the_fields(self, cls, fields):
        a, _ = build(cls, fields)
        shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(a) == f"{cls.__qualname__}({shown})"


def test_trunc_series_hash_ignores_terms():
    a = TruncSeries((0, 1), 2, {(1, 0): POLY})
    b = TruncSeries((0, 1), 2, {})
    assert a != b
    assert hash(a) == hash(b) == hash(((0, 1), 2))


def test_projection_context_is_unhashable():
    ctx = ProjectionContext(GRAM)
    with pytest.raises(TypeError):
        hash(ctx)
    assert ctx._coeff_cache == {} and ctx._monomial_memo == {}
    assert ProjectionContext(GRAM)._coeff_cache is not ctx._coeff_cache
    # contexts compare by their caches too, as the dataclass did
    other = ProjectionContext(GRAM)
    other._coeff_cache[frozenset(), 0] = {}
    assert ctx != other


def test_constructors_validate():
    with pytest.raises(VariableMismatch, match="not among the numerator"):
        GermFraction(SERIES, frozenset({7}))
    singular = InnerProduct.from_matrix([[0]])
    with pytest.raises(SingularGram, match="positive-definite"):
        ProjectionContext(singular, order_rng=None)


@pytest.mark.parametrize(
    "obj, name",
    [
        (Q, "_table"),
        (Q, "_active"),
        (GRAM, "_table"),
        (RenormalizedValue(POLY), "numeric"),
    ],
)
def test_cached_property_is_computed_once(obj, name):
    first = getattr(obj, name)
    assert getattr(obj, name) is first
    assert vars(obj)[name] is first
