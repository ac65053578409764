"""The region engine: values at zero of projected monomials, with no solve.

For a set of poles among the subtree sums L_v of a forest, the region
coordinate y_p of a pole p sums the decorations of p's subtree that lie in
no deeper pole's subtree.  Subtree sums are laminar, so the y_p are
orthogonal and span the pole span, and projecting onto it is diagonal in
them.  The engine's only input is a :class:`Nesting`, the forest order of
the L_v and their weights; it solves no linear system.  :func:`ev0_tree`
evaluates one tree's whole expansion, which is all ``renormalize`` runs,
and :func:`forestren.projector.ev0_piplus_direct` evaluates any germ
fraction over the Nesting of its Gram matrix, with the moves that its
docstring lists.  Nothing here imports the telescoping reference of
:mod:`forestren.projector`, which the tests check this engine against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from .errors import NotProperlyDecorated
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


class _Packing(NamedTuple):
    """One nesting, the bit layout of its states, and the projection caches.

    ``unit[s]`` is 1 in the lowest bit of symbol s's field, ``shift[s]``
    that bit's index, ``below[s]`` = unit[s] - 1 masks the pole bits and
    the fields of smaller symbols, and ``rkey[s]`` is the position part
    (s >> 1) << n of a :meth:`region` key.  ``drops[sign, p, a]`` is move 1
    on the term sign * z_p with a the nearest pole above p (-1 if none):
    ``(sign, pole bit, shift of the field of y_p / R(p), merge)``, where
    ``merge`` adds one power of y_a / R(a) and takes one of y_p / R(p), or
    is None when region p leaves the pole span.
    """

    nest: Nesting
    width: int
    field: int  # mask of one field
    poles: int  # mask of the pole bits
    unit: tuple[int, ...]
    shift: tuple[int, ...]
    below: tuple[int, ...]
    rkey: tuple[int, ...]
    drops: dict[tuple[int, int, int], tuple[int, int, int, Optional[int]]]
    memo: dict[int, tuple[int, int]]  # state -> value
    regions: dict[int, tuple]  # region key -> region entry

    @staticmethod
    def of(nest: Nesting, memo: dict[int, tuple[int, int]]) -> "_Packing":
        n = len(nest.weight)
        width = n.bit_length()
        shift = tuple(n + s * width for s in range(2 * n))
        unit = tuple(1 << t for t in shift)
        drops = {
            (sign, p, a): (
                sign,
                1 << p,
                shift[2 * p + 1],
                unit[2 * a + 1] - unit[2 * p + 1] if a >= 0 else None,
            )
            for sign in (1, -1)
            for p in range(n)
            for a in range(-1, p)  # an ancestor precedes p
        }
        return _Packing(
            nest,
            width,
            (1 << width) - 1,
            (1 << n) - 1,
            unit,
            shift,
            tuple(u - 1 for u in unit),
            tuple((s >> 1) << n for s in range(2 * n)),
            drops,
            memo,
            {},
        )

    def region(self, poles: int, i: int) -> tuple[int, tuple, int, int]:
        """How the moves rewrite the symbol at position i, given the poles
        of the bit mask ``poles``.

        Returns ``(terms, drops, share, up)``.  ``up`` is the nearest pole
        strictly above i (-1 if none), and ``share`` the int weight W_i
        minus those of the maximal poles strictly below i, its tops: for a
        pole its region weight R(i), for a non-pole the squared norm of the
        part of L_i that lies in no pole's subtree.  ``drops`` are the
        terms z_p that move 1 then takes, from :attr:`drops`: for a pole,
        move 3 makes +z_i and -z_c over its tops; for a non-pole, move 2
        makes +z_c over its tops.  ``terms`` counts the terms of i's move:
        the drops, and for a non-pole below a pole the term in y_up.
        Entries are cached under the one int ``i << n | poles``, n the
        vertex count.
        """
        nest = self.nest
        key = i << len(nest.weight) | poles
        hit = self.regions.get(key)
        if hit is None:
            share = nest.weight[i]
            tops = []
            rest = nest.desc[i] & poles
            while rest:
                c = (rest & -rest).bit_length() - 1
                rest &= ~(nest.desc[c] | 1 << c)  # c is a top: skip below
                tops.append(c)
                share -= nest.weight[c]
            up = (nest.anc[i] & poles).bit_length() - 1
            drops = self.drops
            if poles >> i & 1:
                moved = [drops[1, i, up]] + [drops[-1, c, i] for c in tops]
                terms = len(moved)
            else:
                moved = [drops[1, c, up] for c in tops]
                terms = len(moved) + (up >= 0)
            hit = self.regions[key] = (terms, tuple(moved), share, up)
        return hit


def _region_value(pk: _Packing, state: int) -> tuple[int, int]:
    """Value at zero of the projection of a state's monomial / prod of the
    pole z's, as a reduced (numerator, denominator) pair.

    The monomial has degree |poles| and holds no pole's own z; the moves
    keep both true.  Each step rewrites one factor of the symbol whose move
    has the fewest terms, on a tie the last in symbol order: the one of
    smallest weight, a region symbol before the z at the same position.
    """
    if not state:
        return _ONE
    memo = pk.memo
    hit = memo.get(state)
    if hit is not None:
        return hit
    regions = pk.regions
    poles = state & pk.poles
    # scan the occurring symbols from the last down; a later one wins ties
    best = entry = None
    fewest = 1 << 30
    rest = state
    width, offset, below, rkey = pk.width, pk.shift[0], pk.below, pk.rkey
    while rest > poles:
        s = (rest.bit_length() - 1 - offset) // width
        rest &= below[s]
        e = regions.get(rkey[s] | poles)
        if e is None:
            e = pk.region(poles, s >> 1)
        if e[0] < fewest:
            best, entry, fewest = s, e, e[0]
    _, drops, share, a = entry
    rest = state - pk.unit[best]
    num, den = 0, 1
    if not best & 1 and a >= 0:
        # move 2's term off the poles: (W_i - sum of W_c) * y_a / R(a)
        num, den = _region_value(pk, rest + pk.unit[2 * a + 1])
        num *= share
    # move 2 (z_i -> sum of z_c) or 3 (y_i / R(i) -> (z_i - sum of z_c) /
    # R(i)) then move 1 on each z_p: divide it out, drop pole p, and merge
    # region p into the region of p's nearest pole ancestor, onto which both
    # scaled coordinates project; without one, y_p projects to 0
    field = pk.field
    for sign, bit, yshift, merge in drops:
        sub = rest - bit
        e = sub >> yshift & field
        if e:
            if merge is None:
                continue
            sub += e * merge
        vn, vd = _region_value(pk, sub)
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
    pk = _Packing.of(nest, {})

    def terms() -> Iterator[tuple[int, tuple[int]]]:
        stack = [(0, pk.poles, half, 1)]  # position, state, left, coefficient
        while stack:
            p, state, left, c = stack.pop()
            if not left:  # the other positions take m = 0
                yield state, (c,)
                continue
            z, bit = pk.unit[2 * p], 1 << p
            if p < n - 1:
                stack.append((p + 1, state, left, c))
            for m in range(1 if p < n - 1 else left, left + 1):
                stack.append(
                    (p + 1, state + (2 * m - 1) * z - bit, left - m, c * v[m])
                )

    return PiPoly.from_coeffs([0] * half + _ev0_sum(pk, terms(), scale**half))


def _ev0_sum(
    pk: _Packing, terms: Iterable[tuple[int, tuple[int, ...]]], den: int
) -> list[Fraction]:
    """Per power of Pi, the sum of coefficient * state value over the terms,
    each coefficient an int over the common denominator ``den``."""
    sums: list[dict[int, int]] = []  # numerator sums by denominator
    for state, coeffs in terms:
        wn, wd = _region_value(pk, state)
        if wn:
            sums += [{} for _ in range(len(coeffs) - len(sums))]
            for acc, c in zip(sums, coeffs):
                if c:
                    acc[wd] = acc.get(wd, 0) + c * wn
    return [sum((Fraction(v, d * den) for d, v in acc.items()), Fraction(0))
            for acc in sums]
