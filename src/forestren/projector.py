"""Minimal subtraction on fractions with independent simple linear poles.

A :class:`GermFraction` stands for g(L_w, w in W) / prod_{v in V} L_v in the
coordinates z_w = L_w, where the L_w are the subtree sums of a properly
decorated forest (or any family with positive-definite Gram matrix).  The
holomorphic projection works entirely in these coordinates; the only
geometric input is the Gram matrix Q(L_v, L_w).

The recursion: decompose every slot as L_w = sum_v a_wv L_v + L'_w with L'_w
orthogonal to the pole span, discard the polar part g(L')/prod L_v, and
telescope the remainder one correction c*L_v at a time.  Each telescoped
difference vanishes on {L_v = 0}, so it divides exactly by z_v, yielding a
fraction with one pole fewer; terms sharing the removed pole are summed
before recursing.  The base case (no poles) returns the numerator itself;
the value at zero is the constant term of that series-valued projection.
This telescoping recursion, with its Gram solves, is the reference.  Its
sweep is incremental: a step changes one slot's image, so only the
numerator terms that use that slot are substituted again, from kept powers
of the slot images, and their new minus old images make the difference.

The fast path :func:`ev0_piplus_direct` computes only the value at zero,
monomial by monomial, in region coordinates: for a pole p, y_p sums the
decorations of p's subtree that lie in no deeper pole's subtree.  Subtree
sums are laminar, so the y_p are orthogonal and the projection onto the
pole span is diagonal in them.  Its only input is a :class:`Nesting`, which
:func:`ev0_tree` takes from the caller and :func:`ev0_piplus_direct` reads
off the Gram matrix, and it solves no linear system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import getitem
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from .errors import NotProperlyDecorated, SingularGram, VariableMismatch
from .pairing import GramMatrix
from .series import (
    LinearImages,
    PiPoly,
    TruncSeries,
    VertexId,
    ZERO_PIPOLY,
    sinc_inverse_coeffs,
)

if TYPE_CHECKING:  # callers that randomize the order bring their own
    import random


@dataclass(frozen=True)
class GermFraction:
    """A holomorphic numerator over a product of distinct pole variables."""

    numerator: TruncSeries
    poles: frozenset[VertexId]

    def __post_init__(self) -> None:
        extra = self.poles - set(self.numerator.variables)
        if extra:
            raise VariableMismatch(
                f"poles {sorted(extra)} not among the numerator variables"
            )


class Nesting(NamedTuple):
    """The forest order of the subtree sums L_v and their weights.

    Positions list the vertices by decreasing weight W_v = Q(L_v, L_v),
    ties by vertex id, so an ancestor always precedes its descendants.
    ``weight[i]`` is W_v times the common denominator of all the W_v, an
    int: the value at zero does not change when every weight is scaled by
    one factor.  ``anc[i]`` and ``desc[i]`` are bit masks over positions of
    the strict ancestors and descendants of position i.
    """

    pos: dict[VertexId, int]
    weight: tuple[int, ...]
    anc: tuple[int, ...]
    desc: tuple[int, ...]

    @staticmethod
    def of(gram: GramMatrix) -> "Nesting":
        """Read the nesting off ``gram``; raises NotProperlyDecorated.

        v lies below w iff Q(L_v, L_w) = W_v, two vertices in neither
        relation must pair to 0, and the ancestors of each vertex must form
        a chain.  With a positive-definite matrix these conditions say that
        it is the Gram matrix of the subtree sums of a forest.
        """
        diag = {v: Fraction(gram.entry(v, v)) for v in gram.vertices}
        scale = lcm(*(w.denominator for w in diag.values()))
        scaled = {v: int(w * scale) for v, w in diag.items()}
        order = sorted(gram.vertices, key=lambda v: (-scaled[v], v))
        n = len(order)
        anc = [0] * n
        desc = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                g = gram.entry(order[i], order[j])
                if g == diag[order[j]]:
                    anc[j] |= 1 << i
                    desc[i] |= 1 << j
                elif g != 0:
                    raise NotProperlyDecorated(
                        f"not a Gram matrix of subtree sums: the entry {g} of"
                        f" vertices {order[i]} and {order[j]} is neither 0"
                        " nor the weight of one of them"
                    )
        for i in range(n):
            parent = anc[i].bit_length() - 1
            if parent >= 0 and anc[i] != 1 << parent | anc[parent]:
                raise NotProperlyDecorated(
                    "not a Gram matrix of subtree sums: the subtrees"
                    f" containing vertex {order[i]} do not nest"
                )
        pos = {v: i for i, v in enumerate(order)}
        weight = tuple(scaled[v] for v in order)
        return Nesting(pos, weight, tuple(anc), tuple(desc))


@dataclass
class ProjectionContext:
    """Gram data plus solver caches shared across one projection run.

    ``order_rng`` randomizes the telescoping order when set (the projected
    value is provably order-independent; randomized runs exist to test that).
    It is the one field that changes: the subset oracle shares one context
    across all its subsets and reassigns ``order_rng`` per subset mask.
    ``_coeff_cache`` keeps the projection coefficients of each (pole set,
    slot) pair, so each Gram solve runs once per context, and
    ``_monomial_memo`` keeps the states that :func:`ev0_piplus_direct`
    visits over the :class:`Nesting` of ``gram``.  Caches are only ever
    added to, so concurrent readers are safe.
    """

    gram: GramMatrix
    order_rng: Optional[random.Random] = None
    _coeff_cache: dict = field(default_factory=dict, repr=False)
    _monomial_memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.gram.is_positive_definite():
            raise SingularGram(
                "projection requires a positive-definite Gram matrix"
            )


def project_coeffs(
    ctx: ProjectionContext, V: frozenset[VertexId], w: VertexId
) -> dict[VertexId, Fraction]:
    """Coefficients a_wv of the orthogonal projection of L_w onto span{L_v}.

    Solves sum_v Q(L_v, L_u) a_wv = Q(L_w, L_u) for all u in V; for w in V
    the answer is the indicator vector without solving.
    """
    if not V:
        raise ValueError("pole set must be non-empty")
    if w in V:
        return {v: Fraction(1 if v == w else 0) for v in V}
    key = (V, w)
    cached = ctx._coeff_cache.get(key)
    if cached is None:
        sub = sorted(V)
        rhs = [ctx.gram.entry(w, u) for u in sub]
        sol = ctx.gram.solve(sub, rhs)
        cached = dict(zip(sub, sol))
        ctx._coeff_cache[key] = cached
    return cached


def _grouped_remainders(
    num: TruncSeries,
    poles: frozenset[VertexId],
    ctx: ProjectionContext,
) -> dict[VertexId, TruncSeries]:
    """One telescoping sweep: the summed numerators f_v, keyed by removed pole.

    Starts from the fully projected argument (the polar part, which the
    projection annihilates) and re-adds one correction (w, v, a_wv) per
    step, ordered by (w, v), for each slot w the numerator uses; each
    difference is divided exactly by the removed pole variable.

    The sweep is incremental.  A step changes slot w's image only, so it
    recomputes only the terms with a positive exponent of z_w, through
    :meth:`LinearImages.image`, whose kept powers of every other slot's
    image stay valid.  The difference of the substituted numerator across
    the step is the sum of those terms' new minus old images: every other
    term cancels.  Slot w's image is held over the lcm D_w of the
    denominators of its corrections, fixed for the sweep, so a term's image
    keeps the denominator prod_w D_w^e_w through every step, and the
    differences are summed as ints over one common denominator.
    """
    variables = num.variables
    slot = {v: k for k, v in enumerate(variables)}
    images = LinearImages(len(variables), max(map(sum, num.terms), default=0))
    # Slot images, starting at L'_w = z_w - sum_v a_wv z_v, as int forms
    # over D_w.
    forms: dict[int, dict[int, int]] = {}
    steps: list[tuple[VertexId, VertexId, Fraction]] = []
    for w in sorted(num.occurring()):
        coeffs = project_coeffs(ctx, poles, w)
        moves = [(v, coeffs[v]) for v in sorted(poles) if coeffs[v] != 0]
        den = lcm(*(c.denominator for _, c in moves))
        form = forms[slot[w]] = {slot[w]: den}
        for v, c in moves:
            k = slot[v]
            form[k] = form.get(k, 0) - c.numerator * (den // c.denominator)
            steps.append((w, v, c))
        images.set(slot[w], form, den)
    if ctx.order_rng is not None:
        ctx.order_rng.shuffle(steps)
    terms = list(num.terms)
    dens = [images.den(exps) for exps in terms]
    common = lcm(*(
        d * lcm(*(c.denominator for c in coef.coeffs))
        for d, coef in zip(dens, num.terms.values())
    ))
    # each term's Pi^j coefficients as ints over ``common``
    scales = [
        [c.numerator * (common // d // c.denominator) for c in coef.coeffs]
        for d, coef in zip(dens, num.terms.values())
    ]
    users: list[list[int]] = [[] for _ in variables]  # terms by slot used
    current = []  # each term's image at the current step
    for i, exps in enumerate(terms):
        current.append(images.image(exps))
        for k, e in enumerate(exps):
            if e:
                users[k].append(i)
    powers = max(map(len, scales), default=0)
    grouped: dict[VertexId, TruncSeries] = {}
    for w, v, c in steps:
        k = slot[w]
        form, den = forms[k], images.dens[k]
        form[slot[v]] = form.get(slot[v], 0) + c.numerator * (
            den // c.denominator
        )
        images.set(k, form, den)
        sums: list[dict[int, int]] = [{} for _ in range(powers)]
        for i in users[k]:
            new = images.image(terms[i])
            delta = dict(new)
            for key, x in current[i].items():
                delta[key] = delta.get(key, 0) - x
            current[i] = new
            for out, m in zip(sums, scales[i]):
                if m:
                    for key, x in delta.items():
                        if x:
                            out[key] = out.get(key, 0) + m * x
        diff = _series_over(sums, common, images, num)
        if diff.is_zero():
            continue
        h = diff.div_by_var(v)
        acc = grouped.get(v)
        grouped[v] = h if acc is None else acc + h
    return grouped


def _series_over(
    sums: list[dict[int, int]],
    common: int,
    images: LinearImages,
    num: TruncSeries,
) -> TruncSeries:
    """The series in the variables and truncation of ``num`` whose Pi^j
    coefficient at each packed monomial of ``images`` is ``sums[j]`` over
    ``common``."""
    coeffs: dict[int, list[Fraction]] = {}
    for j, acc in enumerate(sums):
        for key, x in acc.items():
            if x:
                row = coeffs.setdefault(key, [])
                row += [Fraction(0)] * (j - len(row))
                row.append(Fraction(x, common))
    return TruncSeries(num.variables, num.trunc, {
        images.exps(key): PiPoly(tuple(row)) for key, row in coeffs.items()
    })


def ev0_piplus(frac: GermFraction, ctx: ProjectionContext) -> PiPoly:
    """The exact value at zero of :func:`piplus_expand` on ``frac``.

    Only the numerator's Taylor terms up to total degree |poles| can reach
    the constant term (linear substitutions preserve homogeneous degree and
    each recursion level performs one exact division), so the numerator is
    truncated to that degree up front.
    """
    _require_vertices(frac, ctx)
    num = frac.numerator.truncated(len(frac.poles))
    return _piplus(num, frac.poles, ctx).eval0()


def ev0_piplus_direct(frac: GermFraction, ctx: ProjectionContext) -> PiPoly:
    """Same value as :func:`ev0_piplus`, computed monomial by monomial.

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

    :func:`ev0_piplus` remains the reference implementation; the two are
    checked against each other in the test suite.
    """
    _require_vertices(frac, ctx)
    n = len(frac.poles)
    num = frac.numerator
    terms = [(exps, c) for exps, c in num.terms.items() if sum(exps) == n]
    if not terms:
        return ZERO_PIPOLY
    pk = _Packing.of(Nesting.of(ctx.gram), ctx._monomial_memo)
    pos, unit = pk.nest.pos, pk.unit
    # what exponent e of each variable adds to a state; a pole variable
    # first loses one power to move 1, a plain division while no region
    # symbol occurs
    add = []
    for v in num.variables:
        p = pos[v]
        z = unit[2 * p]
        if v in frac.poles:
            add.append([0] + [(e - 1) * z - (1 << p) for e in range(1, n + 1)])
        else:
            add.append([e * z for e in range(n + 1)])
    all_poles = sum(1 << pos[p] for p in frac.poles)
    den = lcm(*(c.denominator for _, coeff in terms for c in coeff.coeffs))
    return PiPoly.from_coeffs(_ev0_sum(pk, (
        (sum(map(getitem, add, exps), all_poles),
         tuple(c.numerator * (den // c.denominator) for c in coeff.coeffs))
        for exps, coeff in terms
    ), den))


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


def _require_vertices(frac: GermFraction, ctx: ProjectionContext) -> None:
    """Raise VariableMismatch unless every numerator variable is a vertex."""
    extra = set(frac.numerator.variables).difference(ctx.gram.vertices)
    if extra:
        raise VariableMismatch(
            f"numerator variables {sorted(extra)} are not vertices of the"
            " Gram matrix"
        )


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


def piplus_expand(frac: GermFraction, ctx: ProjectionContext) -> TruncSeries:
    """The holomorphic projection of ``frac`` as a truncated series.

    The output truncation is the numerator truncation minus the pole count;
    its constant term equals :func:`ev0_piplus`.
    """
    _require_vertices(frac, ctx)
    if frac.numerator.trunc < len(frac.poles):
        raise ValueError(
            "numerator truncation must be at least the number of poles"
        )
    return _piplus(frac.numerator, frac.poles, ctx)


def _piplus(
    num: TruncSeries, poles: frozenset[VertexId], ctx: ProjectionContext
) -> TruncSeries:
    if not poles:
        return num
    out_trunc = num.trunc - len(poles)
    total = TruncSeries.zero(num.variables, out_trunc)
    if num.is_zero():
        return total
    grouped = _grouped_remainders(num, poles, ctx)
    for v in sorted(grouped):
        total = total + _piplus(grouped[v], poles - {v}, ctx)
    return total
