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
This telescoping recursion, with its Gram solves, is the reference.

The fast path :func:`ev0_piplus_direct` computes only the value at zero,
monomial by monomial, in region coordinates: for a pole p, y_p sums the
decorations of p's subtree that lie in no deeper pole's subtree.  Subtree
sums are laminar, so the y_p are orthogonal and the projection onto the
pole span is diagonal in them; its only input is the forest order and the
weights that :class:`Nesting` reads off the Gram matrix, and it solves no
linear system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import NotProperlyDecorated, SingularGram, VariableMismatch
from .pairing import GramMatrix
from .series import PiPoly, Rational, TruncSeries, VertexId, ZERO_PIPOLY

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
    """The forest order that a nesting Gram matrix of subtree sums encodes.

    Positions list the vertices by decreasing weight W_v = Q(L_v, L_v), so
    an ancestor always precedes its descendants.  ``anc[i]`` and ``desc[i]``
    are bit masks over positions of the strict ancestors and descendants of
    position i.
    """

    pos: dict[VertexId, int]
    weight: tuple[Fraction, ...]
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
        order = sorted(gram.vertices, key=lambda v: (-gram.entry(v, v), v))
        weight = tuple(Fraction(gram.entry(v, v)) for v in order)
        n = len(order)
        anc = [0] * n
        desc = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                g = gram.entry(order[i], order[j])
                if g == weight[j]:
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
        return Nesting(pos, weight, tuple(anc), tuple(desc))


@dataclass
class ProjectionContext:
    """Gram data plus solver caches shared across one projection run.

    ``order_rng`` randomizes the telescoping order when set (the projected
    value is provably order-independent; randomized runs exist to test that).
    Memoization is bypassed in that case so every run really recomputes.
    The fast path reads the :class:`Nesting` of ``gram`` on first use.
    Caches are only ever added to, so concurrent readers are safe.
    """

    gram: GramMatrix
    order_rng: Optional[random.Random] = None
    _coeff_cache: dict = field(default_factory=dict, repr=False)
    _series_memo: dict = field(default_factory=dict, repr=False)
    _monomial_memo: dict = field(default_factory=dict, repr=False)
    _region_cache: dict = field(default_factory=dict, repr=False)
    _nesting: Optional[Nesting] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.gram.is_positive_definite():
            raise SingularGram(
                "projection requires a positive-definite Gram matrix"
            )

    def nesting(self) -> Nesting:
        """The forest order of the Gram matrix, read on first use."""
        if self._nesting is None:
            self._nesting = Nesting.of(self.gram)
        return self._nesting

    def region(
        self, poles: int, i: int
    ) -> tuple[tuple[int, ...], Fraction, int]:
        """Where position i sits among the poles of the bit mask ``poles``.

        Returns the maximal poles strictly below i, the weight W_i minus
        theirs, and the nearest pole strictly above i (-1 if none), all in
        :meth:`nesting` positions.  For a pole the weight is its region
        weight R(i); for a non-pole it is the squared norm of the part of
        L_i that lies in no pole's subtree.
        """
        key = (poles, i)
        hit = self._region_cache.get(key)
        if hit is None:
            nest = self.nesting()
            below = nest.desc[i] & poles
            tops = []
            share = nest.weight[i]
            for c in range(i + 1, below.bit_length()):
                if below >> c & 1 and not nest.anc[c] & below:
                    tops.append(c)
                    share -= nest.weight[c]
            up = (nest.anc[i] & poles).bit_length() - 1
            hit = self._region_cache[key] = (tuple(tops), share, up)
        return hit


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
    """
    # Slot images, starting at L'_w = z_w - sum_v a_wv z_v.
    images: dict[VertexId, dict[VertexId, Fraction]] = {}
    steps: list[tuple[VertexId, VertexId, Fraction]] = []
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
    prev = num.subst_linear(images)  # g(L'): purely polar, discarded
    grouped: dict[VertexId, TruncSeries] = {}
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


def ev0_piplus(frac: GermFraction, ctx: ProjectionContext) -> PiPoly:
    """The exact value at zero of :func:`piplus_expand` on ``frac``.

    Only the numerator's Taylor terms up to total degree |poles| can reach
    the constant term (linear substitutions preserve homogeneous degree and
    each recursion level performs one exact division), so the numerator is
    truncated to that degree up front.
    """
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
    n = len(frac.poles)
    num = frac.numerator
    terms = [(exps, c) for exps, c in num.terms.items() if sum(exps) == n]
    if not terms:
        return ZERO_PIPOLY
    total: list[Rational] = []  # coefficients of Pi^k
    nest = ctx.nesting()
    pos = [nest.pos[v] for v in num.variables]
    is_pole = [v in frac.poles for v in num.variables]
    all_poles = sum(1 << nest.pos[p] for p in frac.poles)
    for exps, coeff in terms:
        # No region symbol occurs yet, so move 1 on each pole variable that
        # does is a plain division.
        poles = all_poles
        mono = []
        for i, e in enumerate(exps):
            if e and is_pole[i]:
                poles &= ~(1 << pos[i])
                e -= 1
            if e:
                mono.append((2 * pos[i], e))
        weight = _region_value(ctx, tuple(sorted(mono)), poles)
        if weight:
            total += [0] * (len(coeff.coeffs) - len(total))
            for k, c in enumerate(coeff.coeffs):
                if c:
                    total[k] += c * weight
    return PiPoly.from_coeffs(total)


# Monomials in region coordinates are sorted tuples of (symbol, exponent)
# pairs over nesting positions i: symbol 2*i is z_i, the subtree sum at i,
# and 2*i + 1 is y_i / R(i), the region coordinate of the pole at i scaled
# by its region weight.  Scaled, both coordinates of a merge project to the
# merged one with no factor.  Pole sets are bit masks over the positions.


def _region_value(ctx: ProjectionContext, mono: tuple, poles: int) -> Rational:
    """Value at zero of the projection of mono / prod of the pole z's.

    ``mono`` has degree |poles| and holds no pole's own z; the moves keep
    both true.  Each step rewrites one factor of the symbol whose move has
    the fewest terms, on a tie the last in symbol order: the one of
    smallest weight, a region symbol before the z at the same position.
    """
    if not poles:
        return 1
    key = (mono, poles)
    hit = ctx._monomial_memo.get(key)
    if hit is not None:
        return hit
    best, fewest = 0, None
    for s, _ in mono:
        tops, _, a = ctx.region(poles, s >> 1)
        terms = len(tops) + (1 if s & 1 else a >= 0)
        if fewest is None or terms <= fewest:
            best, fewest = s, terms
    i = best >> 1
    tops, share, a = ctx.region(poles, i)
    rest = _bump(mono, best, -1)
    if best & 1:
        # move 3: y_i / R(i) = (z_i - sum of z_c over i's child poles) / R(i)
        val = _drop_pole(ctx, rest, poles, i)
        for c in tops:
            v = _drop_pole(ctx, rest, poles, c)
            if v:
                val -= v
        if val:
            val /= share
    else:
        # move 2: z_i -> sum of z_c + (W_i - sum of W_c) * y_a / R(a)
        parts = [_drop_pole(ctx, rest, poles, c) for c in tops]
        if a >= 0:
            parts.append(
                share * _region_value(ctx, _bump(rest, 2 * a + 1, 1), poles)
            )
        parts = [v for v in parts if v]
        # summed from the first part: adding it to 0 would cost a Fraction
        val = sum(parts[1:], parts[0]) if parts else 0
    ctx._monomial_memo[key] = val
    return val


def _drop_pole(
    ctx: ProjectionContext, mono: tuple, poles: int, p: int
) -> Rational:
    """Move 1 on z_p * mono: divide z_p out and drop pole p.

    Region p merges into the region of p's nearest pole ancestor a, onto
    which the scaled coordinates of both regions project; without a pole
    ancestor, region p leaves the pole span and its coordinate projects to 0.
    """
    yp = 2 * p + 1
    i = 0
    for s, e in mono:
        if s == yp:
            i = e
            break
    if i:
        a = ctx.region(poles, p)[2]
        if a < 0:
            return 0
        mono = _bump(tuple(pr for pr in mono if pr[0] != yp), 2 * a + 1, i)
    return _region_value(ctx, mono, poles & ~(1 << p))


def _bump(mono: tuple, sym: int, delta: int) -> tuple:
    """``mono`` with the exponent of ``sym`` changed by ``delta``."""
    out = []
    done = False
    for s, e in mono:
        if s == sym:
            e += delta
            done = True
        elif not done and s > sym:
            out.append((sym, delta))
            done = True
        if e:
            out.append((s, e))
    if not done:
        out.append((sym, delta))
    return tuple(out)


def piplus_expand(frac: GermFraction, ctx: ProjectionContext) -> TruncSeries:
    """The holomorphic projection of ``frac`` as a truncated series.

    The output truncation is the numerator truncation minus the pole count;
    its constant term equals :func:`ev0_piplus`.
    """
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
    if num.is_zero():
        return TruncSeries.zero(num.variables, out_trunc)
    memo_key = None
    if ctx.order_rng is None:
        memo_key = (num.canonical_key(), poles)
        hit = ctx._series_memo.get(memo_key)
        if hit is not None:
            return hit
    total = TruncSeries.zero(num.variables, out_trunc)
    grouped = _grouped_remainders(num, poles, ctx)
    for v in sorted(grouped):
        total = total + _piplus(grouped[v], poles - {v}, ctx)
    if memo_key is not None:
        ctx._series_memo[memo_key] = total
    return total
