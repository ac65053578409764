"""Minimal subtraction on fractions with independent simple linear poles.

A :class:`GermFraction` stands for g(L_w, w in W) / prod_{v in V} L_v in the
coordinates z_w = L_w, where the L_w are the subtree sums of a properly
decorated forest (or any family with positive-definite Gram matrix).  The
holomorphic projection works entirely in these coordinates; the only
geometric input is the Gram matrix Q(L_v, L_w) on the vertex ids.

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
monomial by monomial, in region coordinates, on the engine of
:mod:`forestren.region` over the :class:`~forestren.region.Nesting` it
reads off the Gram matrix; it solves no linear system.  ``renormalize``
runs that engine tree by tree without this module, so only ``germ``, the
cross-checks and the tests load the reference and its numerators,
:class:`TruncSeries` over Q[pi^2] built from :func:`h_series`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import getitem
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .errors import (
    InvalidArgument, NotDivisible, SingularGram, VariableMismatch
)
from .pairing import Frozen, InnerProduct, Rational
from .region import Nesting, _ev0_sum, _Packing
from .series import (
    ONE_PIPOLY,
    ZERO_PIPOLY,
    PiPoly,
    VertexId,
    sinc_inverse_coeffs,
)

if TYPE_CHECKING:  # callers that randomize the order bring their own
    import random

ExpVec = tuple[int, ...]


class TruncSeries(Frozen):
    """A multivariate power series truncated at a total degree.

    ``variables`` fixes the slot order of the exponent vectors; ``terms`` maps
    exponent vectors (total degree <= ``trunc``) to nonzero PiPoly
    coefficients.  Values are immutable by convention: the ``terms`` dict is
    never mutated after construction, and the hash leaves it out.
    """

    __slots__ = _fields = ("variables", "trunc", "terms")
    variables: tuple[VertexId, ...]
    trunc: int
    terms: Mapping[ExpVec, PiPoly]

    def __init__(
        self,
        variables: tuple[VertexId, ...],
        trunc: int,
        terms: Mapping[ExpVec, PiPoly],
    ) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", terms)

    # written out: the hash skips ``terms``, and series are compared in the
    # reference's hot loops
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.trunc == other.trunc
                and self.variables == other.variables
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.variables, self.trunc))

    @staticmethod
    def make(
        variables: Sequence[VertexId],
        trunc: int,
        terms: Mapping[ExpVec, PiPoly],
    ) -> "TruncSeries":
        variables = tuple(variables)
        kept = {
            ev: c
            for ev, c in terms.items()
            if sum(ev) <= trunc and not c.is_zero()
        }
        return TruncSeries(variables, trunc, kept)

    @staticmethod
    def zero(variables: Sequence[VertexId], trunc: int) -> "TruncSeries":
        return TruncSeries(tuple(variables), trunc, {})

    @staticmethod
    def one(variables: Sequence[VertexId], trunc: int) -> "TruncSeries":
        zero_ev = (0,) * len(variables)
        return TruncSeries.make(variables, trunc, {zero_ev: ONE_PIPOLY})

    @staticmethod
    def var(
        variables: Sequence[VertexId], trunc: int, v: VertexId
    ) -> "TruncSeries":
        variables = tuple(variables)
        ev = tuple(1 if u == v else 0 for u in variables)
        if sum(ev) != 1:
            raise VariableMismatch(f"variable {v} not among {variables}")
        return TruncSeries.make(variables, trunc, {ev: ONE_PIPOLY})

    def _require_same_variables(self, other: "TruncSeries") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"series variables differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_same_variables(other)
        trunc = min(self.trunc, other.trunc)
        out: dict[ExpVec, PiPoly] = dict(self.terms)
        for ev, c in other.terms.items():
            prev = out.get(ev)
            out[ev] = c if prev is None else prev + c
        return TruncSeries.make(self.variables, trunc, out)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(
            self.variables, self.trunc, {ev: -c for ev, c in self.terms.items()}
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_same_variables(other)
        trunc = min(self.trunc, other.trunc)
        out: dict[ExpVec, PiPoly] = {}
        for ev1, c1 in self.terms.items():
            d1 = sum(ev1)
            if d1 > trunc:
                continue
            for ev2, c2 in other.terms.items():
                if d1 + sum(ev2) > trunc:
                    continue
                ev = tuple(a + b for a, b in zip(ev1, ev2))
                prod = c1 * c2
                prev = out.get(ev)
                out[ev] = prod if prev is None else prev + prod
        return TruncSeries.make(self.variables, trunc, out)

    def truncated(self, trunc: int) -> "TruncSeries":
        """Drop terms of total degree above ``trunc`` and lower the bound."""
        if trunc >= self.trunc:
            return TruncSeries(self.variables, trunc, dict(self.terms))
        return TruncSeries.make(self.variables, trunc, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def eval0(self) -> PiPoly:
        """The constant term."""
        return self.terms.get((0,) * len(self.variables), ZERO_PIPOLY)

    def occurring(self) -> frozenset[VertexId]:
        """Variables that actually appear with positive exponent."""
        return frozenset(
            v for k, v in enumerate(self.variables)
            if any(ev[k] for ev in self.terms)
        )

    def subst_linear(
        self, assignment: Mapping[VertexId, Mapping[VertexId, Rational]]
    ) -> "TruncSeries":
        """Substitute homogeneous linear images for some variables.

        ``assignment[w]`` is the linear combination replacing z_w, given as a
        map from variable id to rational coefficient; absent variables are
        left alone.  Truncation is preserved: a linear substitution maps a
        degree-d monomial to a homogeneous degree-d polynomial (or kills it).
        Each term goes through :meth:`LinearImages.image`, the one
        substitution routine, and the images are summed.
        """
        pos = {v: k for k, v in enumerate(self.variables)}
        for w, image in assignment.items():
            if w not in pos:
                raise VariableMismatch(f"substituted variable {w} not in series")
            for u in image:
                if u not in pos:
                    raise VariableMismatch(f"image variable {u} not in series")
        images = LinearImages(
            len(self.variables), max(map(sum, self.terms), default=0)
        )
        for w, image in assignment.items():
            coeffs = {pos[u]: Fraction(c) for u, c in image.items()}
            den = lcm(*(c.denominator for c in coeffs.values()))
            images.set(pos[w], {
                k: c.numerator * (den // c.denominator)
                for k, c in coeffs.items()
            }, den)
        out: dict[ExpVec, PiPoly] = {}
        for ev, coef in self.terms.items():
            den = images.den(ev)
            for key, x in images.image(ev).items():
                exps = images.exps(key)
                piece = coef.scaled(Fraction(x, den))
                prev = out.get(exps)
                out[exps] = piece if prev is None else prev + piece
        return TruncSeries.make(self.variables, self.trunc, out)

    def div_by_var(self, v: VertexId) -> "TruncSeries":
        """Exact division by z_v; every term must contain z_v."""
        pos = {u: k for k, u in enumerate(self.variables)}
        if v not in pos:
            raise VariableMismatch(f"variable {v} not in series")
        k = pos[v]
        out: dict[ExpVec, PiPoly] = {}
        for ev, c in self.terms.items():
            if ev[k] == 0:
                raise NotDivisible(
                    f"term with exponent {ev} has no factor z_{v}"
                )
            out[ev[:k] + (ev[k] - 1,) + ev[k + 1:]] = c
        return TruncSeries(self.variables, self.trunc - 1, out)

    def mul_by_var(self, v: VertexId) -> "TruncSeries":
        """Multiply by z_v, raising the truncation bound by one."""
        pos = {u: k for k, u in enumerate(self.variables)}
        if v not in pos:
            raise VariableMismatch(f"variable {v} not in series")
        k = pos[v]
        out = {
            ev[:k] + (ev[k] + 1,) + ev[k + 1:]: c for ev, c in self.terms.items()
        }
        return TruncSeries(self.variables, self.trunc + 1, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ev in sorted(self.terms, key=lambda e: (sum(e), e)):
            coef = self.terms[ev]
            mono = "*".join(
                f"z{k}" if e == 1 else f"z{k}^{e}"
                for k, e in enumerate(ev)
                if e
            )
            cstr = str(coef)
            if not mono:
                parts.append(cstr)
            elif cstr == "1":
                parts.append(mono)
            elif " " in cstr or cstr.startswith("-"):
                parts.append(f"({cstr})*{mono}")
            else:
                parts.append(f"{cstr}*{mono}")
        return " + ".join(parts)


class LinearImages:
    """Linear images of the n slots of a series, substituted one monomial at
    a time.

    Slot k's image is sum_j form[j] z_j / ``dens[k]`` with int coefficients;
    every slot starts as its own variable z_k.  A monomial is one int, slot
    k's exponent in the ``width`` bits from k * ``width`` up, so multiplying
    monomials adds their keys.  A homogeneous linear image keeps every
    exponent of a monomial's image at most the monomial's degree, which the
    ``degree`` given at construction bounds and ``width`` holds.  The powers
    of each slot's image are kept, and extended as monomials need them, until
    :meth:`set` replaces that image.
    """

    def __init__(self, n: int, degree: int) -> None:
        self.width = max(degree, 1).bit_length()
        self.unit = [1 << k * self.width for k in range(n)]
        self.dens = [1] * n
        self.powers = [[{0: 1}, {u: 1}] for u in self.unit]

    def set(self, k: int, form: Mapping[int, int], den: int) -> None:
        """Make slot k's image sum_j form[j] z_j / den."""
        self.dens[k] = den
        unit = self.unit
        self.powers[k] = [{0: 1}, {unit[j]: c for j, c in form.items() if c}]

    def image(self, exps: ExpVec) -> dict[int, int]:
        """The image of the monomial prod_k z_k^exps[k], as int coefficients
        over :meth:`den` by packed monomial; empty when it vanishes.  The
        result may be a kept power: callers must not change it."""
        out = None
        for k, e in enumerate(exps):
            if e:
                plist = self.powers[k]
                while len(plist) <= e:
                    plist.append(_poly_mul(plist[-1], plist[1]))
                out = plist[e] if out is None else _poly_mul(out, plist[e])
                if not out:
                    break
        return {0: 1} if out is None else out

    def den(self, exps: ExpVec) -> int:
        """The denominator of :meth:`image`: prod_k dens[k]^exps[k]."""
        return prod(d**e for d, e in zip(self.dens, exps) if e)

    def exps(self, key: int) -> ExpVec:
        """The exponent vector of a packed monomial."""
        width = self.width
        mask = (1 << width) - 1
        return tuple(key >> k * width & mask for k in range(len(self.unit)))


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two polynomials keyed by packed monomial."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def h_series(
    v: VertexId,
    N: int,
    variables: Optional[Sequence[VertexId]] = None,
) -> TruncSeries:
    """Taylor expansion of h(z_v) to total degree N, where
    pi/sin(pi x) = 1/x + h(x).

    Only odd degrees occur, and the degree-(2m-1) coefficient is a rational
    multiple of Pi^m.  ``variables`` embeds the result into a larger variable
    set (default: just ``(v,)``).
    """
    if N < 1:
        raise InvalidArgument("h_series needs N >= 1")
    variables = (v,) if variables is None else tuple(variables)
    if v not in variables:
        raise VariableMismatch(f"variable {v} not among {variables}")
    pos = variables.index(v)
    n = len(variables)
    m_max = (N + 1) // 2
    u = sinc_inverse_coeffs(m_max + 1)
    terms: dict[ExpVec, PiPoly] = {}
    for m in range(1, m_max + 1):  # 2m - 1 <= N
        ev = [0] * n
        ev[pos] = 2 * m - 1
        terms[tuple(ev)] = PiPoly.pi2(power=m, coeff=u[m])
    return TruncSeries(variables, N, terms)


class GermFraction(Frozen):
    """A holomorphic numerator over a product of distinct pole variables."""

    __slots__ = _fields = ("numerator", "poles")
    numerator: TruncSeries
    poles: frozenset[VertexId]

    def __init__(
        self, numerator: TruncSeries, poles: frozenset[VertexId]
    ) -> None:
        extra = poles - set(numerator.variables)
        if extra:
            raise VariableMismatch(
                f"poles {sorted(extra)} not among the numerator variables"
            )
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "poles", poles)


class ProjectionContext:
    """Gram data plus solver caches shared across one projection run.

    ``order_rng`` randomizes the telescoping order when set (the projected
    value is provably order-independent; randomized runs exist to test that).
    It is the one field that changes: the subset oracle shares one context
    across all its subsets and reassigns ``order_rng`` per subset mask.
    ``_coeff_cache`` keeps the projection coefficients of each (pole set,
    slot) pair, so each Gram solve runs once per context, and
    ``_monomial_memo`` keeps the states that :func:`ev0_piplus_direct`
    visits over the :class:`~forestren.region.Nesting` of ``gram``; both
    start empty.  Caches are only ever added to, so
    concurrent readers are safe.  Contexts compare by all four fields and
    are unhashable.
    """

    __slots__ = ("gram", "order_rng", "_coeff_cache", "_monomial_memo")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        gram: InnerProduct,
        order_rng: Optional[random.Random] = None,
    ) -> None:
        if not gram.is_positive_definite():
            raise SingularGram(
                "projection requires a positive-definite Gram matrix"
            )
        self.gram = gram
        self.order_rng = order_rng
        self._coeff_cache: dict = {}
        self._monomial_memo: dict = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(gram={self.gram!r},"
            f" order_rng={self.order_rng!r})"
        )


def project_coeffs(
    ctx: ProjectionContext, V: frozenset[VertexId], w: VertexId
) -> dict[VertexId, Fraction]:
    """Coefficients a_wv of the orthogonal projection of L_w onto span{L_v}.

    Solves sum_v Q(L_v, L_u) a_wv = Q(L_w, L_u) for all u in V; for w in V
    the answer is the indicator vector without solving.
    """
    if not V:
        raise InvalidArgument("pole set must be non-empty")
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


def _require_vertices(frac: GermFraction, ctx: ProjectionContext) -> None:
    """Raise VariableMismatch unless every numerator variable is a vertex."""
    extra = set(frac.numerator.variables).difference(ctx.gram.indices)
    if extra:
        raise VariableMismatch(
            f"numerator variables {sorted(extra)} are not vertices of the"
            " Gram matrix"
        )


def piplus_expand(frac: GermFraction, ctx: ProjectionContext) -> TruncSeries:
    """The holomorphic projection of ``frac`` as a truncated series.

    The output truncation is the numerator truncation minus the pole count;
    its constant term equals :func:`ev0_piplus`.
    """
    _require_vertices(frac, ctx)
    if frac.numerator.trunc < len(frac.poles):
        raise InvalidArgument(
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
