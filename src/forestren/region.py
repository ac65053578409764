"""The region engine: values at zero of projected monomials, with no solve.

For a set of poles among the subtree sums L_v of a forest, the region
coordinate y_p of a pole p sums the decorations of p's subtree that lie in
no deeper pole's subtree.  Subtree sums are laminar, so the y_p are
orthogonal and span the pole span, and projecting onto it is diagonal in
them.  This is the fast path.  Its only input is a :class:`Nesting`, the
forest order of the L_v and their weights, and it solves no linear system.
:func:`ev0_tree` evaluates one tree's whole expansion, which is all
``renormalize`` runs, and :func:`ev0_piplus_direct` evaluates any germ
fraction over the Nesting of its Gram matrix, with the moves that its
docstring lists.  It reads its ``GermFraction`` and ``ProjectionContext``
by attribute only: this module and :mod:`forestren.projector`, the
telescoping reference that the tests check it against, import nothing from
each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import getitem
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import NotProperlyDecorated, VariableMismatch
from .series import PiPoly, VertexId, ZERO_PIPOLY, sinc_inverse_coeffs

if TYPE_CHECKING:
    from .pairing import InnerProduct


class Nesting(NamedTuple):
    """The forest order of the subtree sums L_v and their weights.

    Positions list the vertices by decreasing weight W_v = Q(L_v, L_v),
    ties by vertex id, so an ancestor always precedes its descendants.
    ``weight[i]`` is W_v times the common denominator of all the W_v, an
    int: the value at zero does not change when every weight is scaled by
    one factor.  ``anc[i]`` and ``desc[i]`` are bit masks over positions of
    the strict ancestors and descendants of position i.  :meth:`build` is
    the one constructor; :meth:`of` feeds it from a Gram matrix.
    """

    pos: dict[VertexId, int]
    weight: tuple[int, ...]
    anc: tuple[int, ...]
    desc: tuple[int, ...]

    @staticmethod
    def build(
        total: dict[VertexId, int], pairs: Iterable[tuple[VertexId, VertexId]]
    ) -> "Nesting":
        """The nesting of the int weights ``total`` and the (ancestor,
        descendant) ``pairs``, in which each ancestor is the heavier."""
        order = sorted(total, key=lambda v: (-total[v], v))
        pos = {v: i for i, v in enumerate(order)}
        anc, desc = [0] * len(order), [0] * len(order)
        for a, d in pairs:
            anc[pos[d]] |= 1 << pos[a]
            desc[pos[a]] |= 1 << pos[d]
        weight = tuple(total[v] for v in order)
        return Nesting(pos, weight, tuple(anc), tuple(desc))

    @staticmethod
    def of(gram: InnerProduct) -> "Nesting":
        """Read the nesting off ``gram``; raises NotProperlyDecorated.

        v lies below w iff Q(L_v, L_w) = W_v, two vertices in neither
        relation must pair to 0, and the ancestors of each vertex must form
        a chain.  With a positive-definite matrix these conditions say that
        it is the Gram matrix of the subtree sums of a forest.  Only stored
        entries are read, each equal to the weight of its lighter end.
        """
        diag = {v: Fraction(gram.entry(v, v)) for v in gram.indices}
        scale = lcm(*(w.denominator for w in diag.values()))
        total = {v: int(w * scale) for v, w in diag.items()}
        pairs = []
        for (v, w), g in gram.entries:
            if v == w or not g:
                continue
            a, d = (v, w) if (-total[v], v) < (-total[w], w) else (w, v)
            if g != diag[d]:
                raise NotProperlyDecorated(
                    f"not a Gram matrix of subtree sums: the entry {g} of"
                    f" vertices {a} and {d} is neither 0"
                    " nor the weight of one of them"
                )
            pairs.append((a, d))
        nest = Nesting.build(total, pairs)
        for v, i in nest.pos.items():
            parent = nest.anc[i].bit_length() - 1
            if parent >= 0 and nest.anc[i] != 1 << parent | nest.anc[parent]:
                raise NotProperlyDecorated(
                    "not a Gram matrix of subtree sums: the subtrees"
                    f" containing vertex {v} do not nest"
                )
        return nest


# A state of the fast path is one int: bit p (p < n, the vertex count) says
# that nesting position p is a pole, and above the pole bits sits a packed
# monomial in region coordinates, one exponent field of ``width`` bits per
# symbol.  Symbol 2*i is z_i, the subtree sum at position i, and 2*i + 1 is
# y_i / R(i), the region coordinate of the pole at i scaled by its region
# weight; scaled, both coordinates of a merge project to the merged one with
# no factor.  Moves keep the degree equal to the pole count, which is at
# most n, so ``width`` = n.bit_length() bits hold every exponent: bumping
# one is an integer add and dropping a pole clears its bit.  A state with
# no pole is 0.  Weights are the ints of :class:`Nesting`, so the moves
# multiply and divide by ints, and values are reduced (numerator,
# denominator) pairs of ints with a positive denominator, reduced once per
# stored state.  On unit ladders of 10, 12 and 14 vertices the memo and the
# region cache hold 233-241 bytes per state (tracemalloc); sorted tuples of
# (symbol, exponent) pairs with Fraction values took 501-587.

_ZERO = (0, 1)
_ONE = (1, 1)


def _engine(nest: Nesting, memo: dict[int, tuple[int, int]]) -> tuple:
    """The state value function of one nesting, memoized in ``memo``, and
    ``unit``: ``unit[s]`` is 1 in the lowest bit of symbol s's field.

    Per symbol s, ``below[s]`` = unit[s] - 1 masks the pole bits and the
    fields of smaller symbols, and ``rkey[s]`` is the position part
    (s >> 1) << n of a region key.
    """
    n = len(nest.weight)
    width = n.bit_length()
    field = (1 << width) - 1  # mask of one field
    pole_bits = (1 << n) - 1
    unit = tuple(1 << n + s * width for s in range(2 * n))
    below = tuple(u - 1 for u in unit)
    rkey = tuple((s >> 1) << n for s in range(2 * n))
    regions: dict[int, tuple] = {}  # region key -> region entry

    @cache  # region entries share their drops
    def drop(sign: int, p: int, a: int) -> tuple:
        merge = unit[2 * a + 1] - unit[2 * p + 1] if a >= 0 else None
        return sign, 1 << p, n + (2 * p + 1) * width, merge

    def region(poles: int, i: int) -> tuple[int, tuple, int, int]:
        """How the moves rewrite the symbol at position i, given the poles
        of the bit mask ``poles``.

        Returns ``(terms, drops, share, up)``.  ``up`` is the nearest pole
        strictly above i (-1 if none), and ``share`` the int weight W_i
        minus those of the maximal poles strictly below i, its tops: for a
        pole its region weight R(i), for a non-pole the squared norm of the
        part of L_i that lies in no pole's subtree.  ``drops`` are the
        terms z_p that move 1 then takes: for a pole, move 3 makes +z_i and
        -z_c over its tops; for a non-pole, move 2 makes +z_c over its tops.
        A drop is ``(sign, pole bit, shift of the field of y_p / R(p),
        merge)``: ``merge`` adds one power of y_a / R(a), a the nearest
        pole above p, and takes one of y_p / R(p), or is None when region p
        leaves the pole span.  ``terms`` counts the terms of i's move: the
        drops, and for a non-pole below a pole the term in y_up.  The
        caller caches entries under the one int ``i << n | poles``.
        """
        share = nest.weight[i]
        tops = []
        rest = nest.desc[i] & poles
        while rest:
            c = (rest & -rest).bit_length() - 1
            rest &= ~(nest.desc[c] | 1 << c)  # c is a top: skip below
            tops.append(c)
            share -= nest.weight[c]
        up = (nest.anc[i] & poles).bit_length() - 1
        if poles >> i & 1:
            moved = [drop(1, i, up)] + [drop(-1, c, i) for c in tops]
            terms = len(moved)
        else:
            moved = [drop(1, c, up) for c in tops]
            terms = len(moved) + (up >= 0)
        return terms, tuple(moved), share, up

    def value(state: int, recurse: Callable) -> tuple[int, int]:
        """Value at zero of the projection of a state's monomial / prod of
        the pole z's, as a reduced (numerator, denominator) pair.

        The monomial has degree |poles| and holds no pole's own z; the
        moves keep both true.  Each step rewrites one factor of the symbol
        whose move has the fewest terms, on a tie the last in symbol order:
        the one of smallest weight, a region symbol before the z at the
        same position.
        """
        if not state:
            return _ONE
        hit = memo.get(state)
        if hit is not None:
            return hit
        poles = state & pole_bits
        # scan the occurring symbols from the last down; a later one wins ties
        best = entry = None
        fewest = 1 << 30
        rest = state
        while rest > poles:
            s = (rest.bit_length() - 1 - n) // width
            rest &= below[s]
            e = regions.get(rkey[s] | poles)
            if e is None:
                e = regions[rkey[s] | poles] = region(poles, s >> 1)
            if e[0] < fewest:
                best, entry, fewest = s, e, e[0]
        _, drops, share, a = entry
        rest = state - unit[best]
        num, den = 0, 1
        if not best & 1 and a >= 0:
            # move 2's term off the poles: (W_i - sum of W_c) * y_a / R(a)
            num, den = recurse(rest + unit[2 * a + 1], recurse)
            num *= share
        # move 2 (z_i -> sum of z_c) or 3 (y_i / R(i) -> (z_i - sum of z_c)
        # / R(i)) then move 1 on each z_p: divide it out, drop pole p, and
        # merge region p into the region of p's nearest pole ancestor, onto
        # which both scaled coordinates project; without one, y_p projects
        # to 0
        for sign, bit, yshift, merge in drops:
            sub = rest - bit
            e = sub >> yshift & field
            if e:
                if merge is None:
                    continue
                sub += e * merge
            vn, vd = recurse(sub, recurse)
            if vn:
                if vd == den:
                    num += sign * vn
                else:
                    num, den = num * vd + sign * vn * den, den * vd
        if best & 1:
            den *= share
        if num:
            g = gcd(num, den)
            val = (num // g, den // g)
        else:
            val = _ZERO
        memo[state] = val
        return val

    # ``value`` is handed itself to recurse through: naming itself would be
    # a reference cycle, which keeps the memo and region cache until the next
    # cyclic collection (a ``trees`` benchmark run peaked at 46 MB, not 39)
    return lambda state: value(state, value), unit


def ev0_tree(nest: Nesting) -> PiPoly:
    """The value at zero of the projected prod_v (1 + z_v h(z_v)) / z_v
    over the positions of ``nest``: one tree's whole expansion.

    Only numerator terms of degree n, the vertex count, reach it, and z h(z)
    is even, so they are Pi^(n/2) prod_v u_(m_v) z_v^(2 m_v) over the
    m_v >= 0 summing to n/2 (none for odd n), u = :func:`sinc_inverse_coeffs`.
    With L the common denominator of u_1 .. u_(n/2), the v_m = u_m L^m are
    ints and each term's coefficient is prod_v v_(m_v) / L^(n/2), so a
    depth-first walk over these compositions multiplies ints only.  It hands
    each term to the engine as a state, where move 1 has divided one power
    out of each z_v^(2 m_v), and the sums go over L^(n/2) at the end.
    """
    n = len(nest.weight)
    if n % 2:
        return ZERO_PIPOLY
    half = n // 2
    u = sinc_inverse_coeffs(half + 1)
    scale = lcm(*(c.denominator for c in u))
    v = [c.numerator * (scale**m // c.denominator) for m, c in enumerate(u)]
    value, unit = _engine(nest, {})

    def terms() -> Iterator[tuple[int, tuple[int]]]:
        stack = [(0, (1 << n) - 1, half, 1)]  # position, state, left, coeff
        while stack:
            p, state, left, c = stack.pop()
            if not left:  # the other positions take m = 0
                yield state, (c,)
                continue
            z, bit = unit[2 * p], 1 << p
            if p < n - 1:
                stack.append((p + 1, state, left, c))
            for m in range(1 if p < n - 1 else left, left + 1):
                stack.append(
                    (p + 1, state + (2 * m - 1) * z - bit, left - m, c * v[m])
                )

    sums = _ev0_sum(value, terms(), scale**half)
    return PiPoly.from_coeffs([0] * half + sums)


def ev0_piplus_direct(frac: GermFraction, ctx: ProjectionContext) -> PiPoly:
    """Same value as :func:`forestren.projector.ev0_piplus`, computed
    monomial by monomial.

    Degree bookkeeping (substitutions by constant-free linear forms preserve
    homogeneous degree, each recursion level divides by one pole variable,
    and only degree zero survives the final evaluation) pins the contributing
    numerator terms to total degree exactly |poles|.  Each is evaluated in
    region coordinates: for a pole p, y_p is the sum of the decorations in
    p's subtree that lie in no deeper pole's subtree.  Subtree sums form a
    laminar family, so the y_p are orthogonal and span the pole span, and
    projecting onto it needs no linear solve.  With R(p) = Q(y_p, y_p) the
    region weight, three exact moves, each keeping the total degree equal to
    the pole count, reduce a monomial in the symbols z_v and y_p:

    1. a pole's own z_p: divide it out and drop p.  Region p merges into
       the region of p's nearest pole ancestor a, and y_p and y_a project
       to R(p)/(R(p)+R(a)) and R(a)/(R(p)+R(a)) times the merged y_a;
       without a pole ancestor y_p projects to 0.
    2. a non-pole z_w: replace it by its projection, the sum of z_c over
       the maximal poles c inside w's subtree plus
       (W_w - sum of W_c) / R(a) * y_a for w's nearest pole ancestor a,
       where W_v = Q(L_v, L_v).
    3. a region coordinate y_q: write it as z_q minus the z_c of q's child
       poles, then apply move 1 to each term.

    Move 1 first takes out the numerator's own pole variables.  After that
    each step rewrites one factor of the symbol whose move has the fewest
    terms, so chains stay sparse in z and bushy pole sets sparse in y.
    Moves 1 and 2 use that a fraction's value is unchanged when a factor of
    its numerator is replaced by its projection onto the pole span: the
    projection is linear over functions of the orthogonal directions, and
    evaluation at zero sends those to 0.  The Gram matrix must be that of
    the subtree sums of a forest (see :class:`Nesting`).

    :func:`forestren.projector.ev0_piplus` remains the reference
    implementation; the two are checked against each other in the test
    suite.
    """
    extra = set(frac.numerator.variables).difference(ctx.gram.indices)
    if extra:
        raise VariableMismatch(
            f"numerator variables {sorted(extra)} are not vertices of the"
            " Gram matrix"
        )
    n = len(frac.poles)
    num = frac.numerator
    terms = [(exps, c) for exps, c in num.terms.items() if sum(exps) == n]
    if not terms:
        return ZERO_PIPOLY
    nest = Nesting.of(ctx.gram)
    value, unit = _engine(nest, ctx._monomial_memo)
    # what exponent e of each variable adds to a state; a pole variable
    # first loses one power to move 1, a plain division while no region
    # symbol occurs
    add = []
    for v in num.variables:
        p = nest.pos[v]
        z = unit[2 * p]
        if v in frac.poles:
            add.append([0] + [(e - 1) * z - (1 << p) for e in range(1, n + 1)])
        else:
            add.append([e * z for e in range(n + 1)])
    all_poles = sum(1 << nest.pos[p] for p in frac.poles)
    den = lcm(*(c.denominator for _, coeff in terms for c in coeff.coeffs))
    return PiPoly.from_coeffs(_ev0_sum(value, (
        (sum(map(getitem, add, exps), all_poles),
         tuple(c.numerator * (den // c.denominator) for c in coeff.coeffs))
        for exps, coeff in terms
    ), den))


def _ev0_sum(
    value: Callable, terms: Iterable[tuple[int, tuple[int, ...]]], den: int
) -> list[Fraction]:
    """Per power of Pi, the sum of coefficient * state value over the terms,
    each coefficient an int over the common denominator ``den``."""
    sums: list[dict[int, int]] = []  # numerator sums by denominator
    for state, coeffs in terms:
        wn, wd = value(state)
        if wn:
            sums += [{} for _ in range(len(coeffs) - len(sums))]
            for acc, c in zip(sums, coeffs):
                if c:
                    acc[wd] = acc.get(wd, 0) + c * wn
    return [sum((Fraction(v, d * den) for d, v in acc.items()), Fraction(0))
            for acc in sums]
