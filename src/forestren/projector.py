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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import SingularGram, VariableMismatch
from .pairing import GramMatrix
from .series import PiPoly, TruncSeries, VertexId, ZERO_PIPOLY


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


@dataclass
class ProjectionContext:
    """Gram data plus solver caches shared across one projection run.

    ``order_rng`` randomizes the telescoping order when set (the projected
    value is provably order-independent; randomized runs exist to test that).
    Memoization is bypassed in that case so every run really recomputes.
    Caches are only ever added to, so concurrent readers are safe.
    """

    gram: GramMatrix
    order_rng: Optional[random.Random] = None
    _coeff_cache: dict = field(default_factory=dict, repr=False)
    _series_memo: dict = field(default_factory=dict, repr=False)
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
    numerator terms to total degree exactly |poles|.  On a single monomial
    the telescoping collapses to two moves, applied by :func:`_monomial_ev0`:
    strip one pole variable the monomial contains and drop that pole, or --
    when the monomial avoids the pole set -- replace every variable by its
    orthogonal projection onto the pole span and expand.  The result is a
    rational multiple of the coefficient, so the whole evaluation is a sparse
    pairing of the numerator against cached rational weights.

    :func:`ev0_piplus` remains the reference implementation; the two are
    checked against each other in the test suite.
    """
    n = len(frac.poles)
    num = frac.numerator
    total = ZERO_PIPOLY
    for exps, coeff in num.terms.items():
        if sum(exps) != n:
            continue
        mono = tuple(
            (num.variables[i], e) for i, e in enumerate(exps) if e
        )
        weight = _monomial_ev0(ctx, mono, frac.poles)
        if weight != 0:
            total = total + coeff.scaled(weight)
    return total


def _monomial_ev0(
    ctx: ProjectionContext,
    mono: tuple[tuple[VertexId, int], ...],
    poles: frozenset[VertexId],
) -> Fraction:
    """Value of the projection at zero on z^mono / prod of pole variables.

    ``mono`` is a sorted tuple of (variable, exponent) pairs of total degree
    |poles|, which the caller ensures and both moves preserve.
    """
    if not poles:
        return Fraction(1)
    key = (mono, poles)
    hit = ctx._monomial_memo.get(key)
    if hit is not None:
        return hit
    touched = [w for w, _ in mono if w in poles]
    if touched:
        # Telescoping in slot-major order reaches this monomial only at the
        # step that switches on its last pole variable; the difference is the
        # monomial itself, divided exactly by that variable.
        p = max(touched)
        stripped = []
        for w, e in mono:
            if w == p:
                e -= 1
            if e:
                stripped.append((w, e))
        val = _monomial_ev0(ctx, tuple(stripped), poles - {p})
    else:
        # No pole variable occurs: the component of each slot orthogonal to
        # the pole span is polar and annihilated, so substitute the
        # projections and expand over pure pole monomials.
        pv = sorted(poles)
        acc: dict[tuple[int, ...], Fraction] = {(0,) * len(pv): Fraction(1)}
        for w, e in mono:
            coeffs = project_coeffs(ctx, poles, w)
            lin = [(i, coeffs[v]) for i, v in enumerate(pv) if coeffs.get(v)]
            for _ in range(e):
                nxt: dict[tuple[int, ...], Fraction] = {}
                for exps, c in acc.items():
                    for i, a in lin:
                        bumped = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                        prev = nxt.get(bumped)
                        nxt[bumped] = c * a if prev is None else prev + c * a
                acc = nxt
        val = Fraction(0)
        for exps, c in acc.items():
            if c == 0:
                continue
            pure = tuple((pv[i], e) for i, e in enumerate(exps) if e)
            val += c * _monomial_ev0(ctx, pure, poles)
    ctx._monomial_memo[key] = val
    return val


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
