"""Rooted forests decorated by linear forms.

Forests are commutative multisets of non-planar rooted trees; every vertex
carries a linear-form decoration and an id that later names its series
variable.  Construction is locality-guarded: concatenation and grafting
demand Q-orthogonality, mirroring the partial product and partial grafting
action of the underlying operated structure; the fold of
:mod:`forestren.universal` reads a forest's unique decomposition off its
``trees`` and their ``children``.

The module also owns proper-decoration validation, the one walk that reads
a forest's nesting and the Gram matrix of its subtree sums, the text
grammar (canonical weight mode and explicit vector mode), the
order-independent canonical encoding, and a catalog of all forest shapes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    InvalidArgument,
    LocalityViolation,
    NonPositiveWeight,
    NotProperlyDecorated,
    ParseError,
)
from .pairing import (
    Frozen,
    InnerProduct,
    LinearForm,
    Rational,
    basis,
    inner,
    is_independent,
)

VertexId = int


class DecoratedTree(Frozen):
    """A rooted tree: root decoration, root id, and an unordered children tuple."""

    __slots__ = _fields = ("root_id", "decoration", "children")
    root_id: VertexId
    decoration: LinearForm
    children: tuple["DecoratedTree", ...]

    def __init__(
        self,
        root_id: VertexId,
        decoration: LinearForm,
        children: tuple["DecoratedTree", ...],
    ) -> None:
        object.__setattr__(self, "root_id", root_id)
        object.__setattr__(self, "decoration", decoration)
        object.__setattr__(self, "children", children)

    def vertex_count(self) -> int:
        return DecoratedForest((self,)).degree()


class DecoratedForest(Frozen):
    """A multiset of decorated rooted trees; the empty tuple is the unit."""

    __slots__ = _fields = ("trees",)
    trees: tuple[DecoratedTree, ...]

    def __init__(self, trees: tuple[DecoratedTree, ...]) -> None:
        object.__setattr__(self, "trees", trees)

    def degree(self) -> int:
        return sum(1 for _ in iter_vertices(self))

    def is_empty(self) -> bool:
        return not self.trees


EMPTY_FOREST = DecoratedForest(())


def tree(
    root_id: VertexId,
    decoration: LinearForm,
    children: Sequence[DecoratedTree] = (),
) -> DecoratedTree:
    return DecoratedTree(root_id, decoration, tuple(children))


def forest_of(*trees_: DecoratedTree) -> DecoratedForest:
    return DecoratedForest(tuple(trees_))


def iter_vertices(forest: DecoratedForest) -> Iterator[DecoratedTree]:
    """Every vertex of the forest, as the subtree node rooted there.

    The order is a preorder: reversed, it lists children before parents.
    """
    stack = list(forest.trees)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def vertex_ids(forest: DecoratedForest) -> tuple[VertexId, ...]:
    return tuple(sorted(node.root_id for node in iter_vertices(forest)))


def degree(forest: DecoratedForest) -> int:
    """Total vertex count; the unit forest has degree zero."""
    return forest.degree()


def decorations(forest: DecoratedForest) -> dict[VertexId, LinearForm]:
    return {node.root_id: node.decoration for node in iter_vertices(forest)}


def concat(
    f1: DecoratedForest, f2: DecoratedForest, Q: InnerProduct
) -> DecoratedForest:
    """Disjoint product of two forests; defined only on independent pairs."""
    d1 = decorations(f1)
    d2 = decorations(f2)
    shared = set(d1) & set(d2)
    if shared:
        raise InvalidArgument(
            f"vertex ids {sorted(shared)} occur in both concatenation operands"
        )
    for v, a in d1.items():
        for w, b in d2.items():
            if not is_independent(Q, a, b):
                raise LocalityViolation(
                    f"decorations of vertices {v} and {w} pair nontrivially: "
                    f"Q({a}, {b}) = {inner(Q, a, b)}"
                )
    return DecoratedForest(f1.trees + f2.trees)


def graft(
    omega: LinearForm,
    forest: DecoratedForest,
    Q: InnerProduct,
    root_id: Optional[VertexId] = None,
) -> DecoratedTree:
    """Grow a new root decorated ``omega`` below ``forest``.

    The grafting action is partial: ``omega`` must be independent of every
    decoration already present.  When no ``root_id`` is given, one larger
    than every existing id is used.
    """
    for node in iter_vertices(forest):
        if not is_independent(Q, omega, node.decoration):
            raise LocalityViolation(
                f"grafting decoration pairs nontrivially with vertex "
                f"{node.root_id}: Q({omega}, {node.decoration}) = "
                f"{inner(Q, omega, node.decoration)}"
            )
    if root_id is None:
        ids = vertex_ids(forest)
        root_id = (max(ids) + 1) if ids else 0
    elif root_id in vertex_ids(forest):
        raise InvalidArgument(f"root id {root_id} already used in the forest")
    return DecoratedTree(root_id, omega, forest.trees)


def subtree_sums(forest: DecoratedForest) -> dict[VertexId, LinearForm]:
    """For each vertex v, the sum L_v of decorations over its maximal subtree."""
    sums: dict[VertexId, LinearForm] = {}
    for node in reversed(list(iter_vertices(forest))):
        acc = node.decoration
        for child in node.children:
            acc = acc + sums[child.root_id]
        sums[node.root_id] = acc
    return sums


# --------------------------------------------------------------------------
# Proper decoration and Gram matrices
# --------------------------------------------------------------------------


def check_properly_decorated(forest: DecoratedForest, Q: InnerProduct) -> bool:
    """True iff all vertex decorations are nonzero and pairwise Q-orthogonal."""
    decos = [t.decoration for t in iter_vertices(forest)]
    if any(d.is_zero() for d in decos):
        return False
    for i in range(len(decos)):
        for j in range(i + 1, len(decos)):
            if not is_independent(Q, decos[i], decos[j]):
                return False
    return True


def gram(forest: DecoratedForest, Q: InnerProduct) -> InnerProduct:
    """Gram matrix of the subtree sums L_v, via the overlap formula.

    For a properly decorated forest, Q(L_v, L_w) is the sum of the
    self-pairings q_u = Q(d(u), d(u)) over the vertices u common to the two
    maximal subtrees: cross terms vanish by orthogonality, and two subtree
    vertex sets are either nested or disjoint.  The matrix, an
    :class:`InnerProduct` on the vertex ids, stores W_v = Q(L_v, L_v) at
    (v, v) and W_d at each (ancestor a, descendant d).  The weights come
    from :func:`vertex_weights`, which raises on any other forest.
    """
    total, pairs, den = _laminar(forest, vertex_weights(forest, Q))
    stored = [((v, v), total[v]) for v in total]
    stored += [((min(a, d), max(a, d)), total[d]) for a, d in pairs]
    entries = tuple((ij, Fraction(w, den)) for ij, w in sorted(stored))
    return InnerProduct(tuple(sorted(total)), entries)


def _laminar(
    forest: DecoratedForest, weights: dict[VertexId, Fraction]
) -> tuple[dict[VertexId, int], list[tuple[VertexId, VertexId]], int]:
    """One walk: the subtree weights W_v as ints over their common
    denominator, every (ancestor, descendant) pair, and that denominator,
    the lcm of the denominators of the vertex ``weights``."""
    nodes = list(iter_vertices(forest))
    den = lcm(*(weights[node.root_id].denominator for node in nodes))
    total: dict[VertexId, int] = {}
    below: dict[VertexId, list[VertexId]] = {}  # strict descendants
    for node in reversed(nodes):  # children before parents
        v, w = node.root_id, weights[node.root_id]
        total[v] = w.numerator * (den // w.denominator)
        below[v] = []
        for c in node.children:
            total[v] += total[c.root_id]
            below[v] += [c.root_id, *below[c.root_id]]
    return total, [(a, d) for a, ds in below.items() for d in ds], den


def vertex_weights(
    forest: DecoratedForest, Q: InnerProduct
) -> dict[VertexId, Fraction]:
    """The self-pairings q_v = Q(d(v), d(v)) of a properly decorated forest.

    The pipeline's one validation: :func:`gram`, ``regularize`` and
    ``renormalize`` check nothing else.  Raises :class:`NotProperlyDecorated`
    unless :func:`check_properly_decorated` holds, then
    :class:`InvalidArgument`, a ``ValueError``, at the first repeated vertex
    id and :class:`NonPositiveWeight` at the first vertex whose weight is not
    positive.
    """
    if not check_properly_decorated(forest, Q):
        raise NotProperlyDecorated(
            "the pipeline is defined only for properly decorated forests"
        )
    weights: dict[VertexId, Fraction] = {}
    for node in iter_vertices(forest):
        if node.root_id in weights:
            raise InvalidArgument(f"vertex id {node.root_id} occurs twice")
        q = inner(Q, node.decoration, node.decoration)
        if q <= 0:
            raise NonPositiveWeight(
                f"vertex {node.root_id} has non-positive weight {q}"
            )
        weights[node.root_id] = q
    return weights


def gram_from_inner(forest: DecoratedForest, Q: InnerProduct) -> InnerProduct:
    """Gram matrix computed the direct way: Q applied to explicit subtree sums.

    Independent cross-check route for :func:`gram`; the two must agree on
    every properly decorated forest.
    """
    sums = subtree_sums(forest)
    vertices = tuple(sorted(sums))
    pairings = (
        ((v, w), inner(Q, sums[v], sums[w]))
        for k, v in enumerate(vertices)
        for w in vertices[k:]
    )
    return InnerProduct(vertices, tuple(e for e in pairings if e[1] != 0))


# --------------------------------------------------------------------------
# Canonical encoding
# --------------------------------------------------------------------------


def _encode(
    forest: DecoratedForest,
    Q: InnerProduct,
    label: Optional[Callable[[DecoratedTree], str]] = None,
) -> tuple[list[str], list[str]]:
    """The trees' canonical keys, sorted, and with ``label`` their texts.

    One walk in reversed preorder, children before parents.  A vertex's key
    is its weight and its children's keys in sorted order; its text is
    ``label(vertex)`` and its children's texts in the order of their keys.
    The texts are empty without ``label``.
    """
    keys: dict[int, str] = {}  # by object id: vertex ids need not be unique
    texts: dict[int, str] = {}
    for v in reversed(list(iter_vertices(forest))):
        kids = sorted(v.children, key=lambda c: keys[id(c)])
        w = inner(Q, v.decoration, v.decoration)
        keys[id(v)] = f"({w}|{','.join(keys[id(c)] for c in kids)})"
        if label is not None:
            body = " ".join(texts[id(c)] for c in kids)
            texts[id(v)] = f"({label(v)} {body})" if body else f"({label(v)})"
    trees = sorted(forest.trees, key=lambda t: keys[id(t)])
    return [keys[id(t)] for t in trees], [
        texts[id(t)] for t in trees if label is not None
    ]


def canonical(forest: DecoratedForest, Q: InnerProduct) -> bytes:
    """Order-independent byte encoding of a forest.

    Vertices are keyed by their weight q_v = Q(d(v), d(v)) and the multiset
    of child encodings; tree order and sibling order never matter, and
    neither do the concrete basis indices of the decorations.  Two properly
    decorated forests encode equally exactly when they carry the same
    Gram data, which is what every downstream value depends on.
    """
    return ";".join(_encode(forest, Q)[0]).encode("utf-8")


# --------------------------------------------------------------------------
# Text grammar
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|\[[^\[\]]*\]|[^\s()\[\]]+")

# The deepest nesting parse_forest accepts, a bound the CLI walks safely
MAX_NESTING = 960
# The most digits a parsed numerator or denominator may have: Python's
# default limit on the digits int() reads, which bounds each digit run of a
# token.  Past an exponent of 2 * MAX_DIGITS either part has more digits,
# since the mantissa's runs have MAX_DIGITS at most.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS
_EXPONENT_RE = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        between = text[pos : m.start()]
        if between.strip():
            raise ParseError(f"unexpected character {between.strip()[0]!r}")
        tokens.append(m.group())
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
    return tokens


def _parse_fraction(tok: str) -> Fraction:
    """The rational a token spells; raises ParseError unless its numerator
    and denominator have at most :data:`MAX_DIGITS` digits each."""
    try:
        # Fraction builds 10**exponent whole: refuse a large one before
        exp = _EXPONENT_RE.search(tok)
        if exp is not None and abs(int(exp[1])) > 2 * MAX_DIGITS:
            raise ValueError("exponent out of range")
        value = Fraction(tok)
        if max(abs(value.numerator), value.denominator) >= _DIGITS_BOUND:
            raise ValueError("too many digits")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(tok)
        if len(tok) > 20:  # a token may run to any length
            shown = f"{tok[:20]!r}... ({len(tok)} characters)"
        raise ParseError(f"invalid rational {shown}") from exc


def _parse_q_matrix(text: str) -> InnerProduct:
    rows = []
    for row_text in text.split(";"):
        # Entries may be separated by commas, whitespace, or both.
        entries = row_text.replace(",", " ").split()
        if not entries:
            raise ParseError("empty row in Q matrix")
        rows.append([_parse_fraction(e) for e in entries])
    try:
        Q = InnerProduct.from_matrix(rows)
    except ValueError as exc:
        raise ParseError(f"bad Q matrix: {exc}") from exc
    if not Q.is_positive_definite():
        raise ParseError("Q matrix must be positive definite")
    return Q


def _parse_decoration(
    tok: str,
    explicit_Q: Optional[InnerProduct],
    vid: VertexId,
    weights: dict[VertexId, Fraction],
) -> LinearForm:
    """Decorate vertex ``vid``; canonical weights go in ``weights``."""
    if explicit_Q is not None:
        if not tok.startswith("["):
            raise ParseError(
                f"expected vector literal in explicit mode, got {tok!r}"
            )
        body = tok[1:-1].strip()
        if not body:
            raise ParseError("empty vector literal")
        coords = [_parse_fraction(p.strip()) for p in body.split(",")]
        dim = len(explicit_Q.indices)
        if len(coords) != dim:
            raise ParseError(
                f"vector has {len(coords)} entries; Q is {dim}x{dim}"
            )
        lf = LinearForm.from_coeffs({i: c for i, c in enumerate(coords)})
        if lf.is_zero():
            raise NotProperlyDecorated("zero decoration vector")
        return lf
    if tok.startswith("["):
        raise ParseError("vector literal requires a leading Q= line")
    w = _parse_fraction(tok)
    if w <= 0:
        raise NonPositiveWeight(f"vertex weight {w} must be positive")
    weights[vid] = w
    return basis(vid)


def parse_forest(text: str) -> tuple[DecoratedForest, InnerProduct]:
    """Parse the forest grammar, returning the forest and its inner product.

    Canonical mode::

        forest := "1" | tree+        tree := "(" weight tree* ")"

    with positive rational weights; each vertex receives a fresh orthogonal
    direction whose self-pairing is its weight.  Explicit mode starts with a
    line ``Q=<matrix>`` (rows semicolon-separated, entries comma-separated)
    and then uses vector literals ``[c1,...,cn]`` as decorations; the result
    must be properly decorated.

    One pass over the tokens keeps a stack of open vertices, numbered in
    preorder; nesting deeper than :data:`MAX_NESTING` is a :class:`ParseError`.
    """
    stripped = text.lstrip()
    explicit_Q: Optional[InnerProduct] = None
    body = text
    if stripped.startswith("Q="):
        first, _, rest = stripped.partition("\n")
        explicit_Q = _parse_q_matrix(first[2:])
        body = rest
    tokens = _tokenize(body)
    if not tokens:
        raise ParseError("empty input")
    if tokens == ["1"]:
        if explicit_Q is not None:
            return EMPTY_FOREST, explicit_Q
        return EMPTY_FOREST, InnerProduct.diagonal({})
    weights: dict[VertexId, Fraction] = {}
    trees: list[DecoratedTree] = []
    stack: list[tuple[VertexId, LinearForm, list[DecoratedTree]]] = []
    next_id = 0
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError("forest nesting is too deep")
            if k + 1 == len(tokens):
                raise ParseError("unexpected end of input")
            deco = _parse_decoration(tokens[k + 1], explicit_Q, next_id, weights)
            stack.append((next_id, deco, []))
            next_id += 1
            k += 2
        elif tok == ")" and stack:
            vid, deco, children = stack.pop()
            node = DecoratedTree(vid, deco, tuple(children))
            (stack[-1][2] if stack else trees).append(node)
            k += 1
        else:
            raise ParseError(f"expected {')' if stack else '('!r}, got {tok!r}")
    if stack:
        raise ParseError("unexpected end of input")
    forest = DecoratedForest(tuple(trees))
    if explicit_Q is not None:
        # Q is positive definite and no decoration is zero: weights are positive
        Q = explicit_Q
        if not check_properly_decorated(forest, Q):
            raise NotProperlyDecorated(
                "explicit decorations must be nonzero and pairwise Q-orthogonal"
            )
    else:
        Q = InnerProduct.diagonal(weights)
    return forest, Q


def _is_canonical_mode(forest: DecoratedForest, Q: InnerProduct) -> bool:
    if not Q.is_diagonal():
        return False
    seen = set()
    for node in iter_vertices(forest):
        items = node.decoration.items
        if len(items) != 1 or items[0][1] != 1 or items[0][0] in seen:
            return False
        seen.add(items[0][0])
    return True


def serialize(forest: DecoratedForest, Q: InnerProduct) -> str:
    """Render a forest in the grammar, trees and siblings in canonical order.

    Canonical mode labels each vertex with its weight.  Otherwise the text
    starts with the dense Q matrix over its active set and labels each
    vertex with its decoration's coordinate vector in that index order.
    """
    if _is_canonical_mode(forest, Q):
        header = ""

        def label(node: DecoratedTree) -> str:
            return str(inner(Q, node.decoration, node.decoration))

    else:
        idx = list(Q.indices)
        rows = ";".join(
            ",".join(str(Q.entry(i, j)) for j in idx) for i in idx
        )
        header = f"Q={rows}\n"

        def label(node: DecoratedTree) -> str:
            coeffs = ",".join(str(node.decoration.coeff(i)) for i in idx)
            return f"[{coeffs}]"

    return header + (" ".join(_encode(forest, Q, label)[1]) or "1")


# --------------------------------------------------------------------------
# Shape catalog
# --------------------------------------------------------------------------
#
# A tree shape is a sorted tuple of child shapes; a forest shape is a sorted
# tuple of tree shapes.  Nested tuples compare lexicographically, which gives
# a total order, so "sorted" is canonical.


Shape = tuple  # recursive: tuple of child Shapes


def tree_shapes(n: int) -> tuple[Shape, ...]:
    """All rooted-tree shapes with exactly n vertices, canonically sorted:
    the forest shapes of the root's children."""
    return forest_shapes(n - 1) if n >= 1 else ()


@lru_cache(maxsize=None)
def forest_shapes(n: int) -> tuple[Shape, ...]:
    """All forest shapes (multisets of tree shapes) with exactly n vertices:
    each a tree of some size k beside a forest of n - k, sorted."""
    if n == 0:
        return ((),)
    return tuple(sorted({
        tuple(sorted((tree_, *rest)))
        for k in range(1, n + 1)
        for tree_ in tree_shapes(k)
        for rest in forest_shapes(n - k)
    }))


def shape_size(shape: Shape) -> int:
    """Vertex count of a forest shape."""
    return sum(1 + shape_size(child) for child in shape)


def from_shape(
    shape: Shape,
    weights: Sequence[Rational],
    id_start: int = 0,
) -> tuple[DecoratedForest, InnerProduct]:
    """Instantiate a forest shape with canonical-mode decorations.

    ``weights`` are consumed in preorder (root before children, trees left to
    right); ids are assigned sequentially from ``id_start``.
    """
    n = shape_size(shape)
    if len(weights) != n:
        raise InvalidArgument(f"shape needs {n} weights, got {len(weights)}")
    weight_iter = iter([Fraction(w) for w in weights])
    counter = [id_start]
    table: dict[int, Fraction] = {}

    def build(tree_shape: Shape) -> DecoratedTree:
        vid = counter[0]
        counter[0] += 1
        w = next(weight_iter)
        if w <= 0:
            raise NonPositiveWeight(f"vertex weight {w} must be positive")
        table[vid] = w
        kids = tuple(build(c) for c in tree_shape)
        return DecoratedTree(vid, basis(vid), kids)

    trees_ = tuple(build(t) for t in shape)
    return DecoratedForest(trees_), InnerProduct.diagonal(table)
