"""The universal-property fold over decorated forests.

Properly decorated forests form the initial object among commutative monoids
that carry a compatible partial product and a partial grafting action, both
guarded by an independence relation.  Consequently a forest can be evaluated
into any such target by one structural recursion: the unit maps to the
target unit, products to products, and a graft to the target action; each
tree is its root decoration grafted onto the forest of its children.  The
fold checks every required independence at runtime instead of assuming it,
so it is usable with arbitrary user-supplied targets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Generic, TypeVar

from .errors import LocalityViolation
from .forest import DecoratedForest
from .pairing import (
    ZERO_FORM,
    Frozen,
    InnerProduct,
    LinearForm,
    is_independent,
)
from .renorm import RegularizedIntegral

T = TypeVar("T")


class OperatedLocalityTarget(ABC, Generic[T]):
    """A commutative monoid with a partial product and a partial action.

    ``product`` is only called on pairs for which ``independent`` holds, and
    ``action`` only when ``action_independent`` holds; the fold enforces
    both.  Implementations must keep the product associative and commutative
    on pairwise-independent tuples and the unit independent of everything.
    """

    @abstractmethod
    def unit(self) -> T:
        ...

    @abstractmethod
    def independent(self, u: T, v: T) -> bool:
        ...

    @abstractmethod
    def product(self, u: T, v: T) -> T:
        ...

    @abstractmethod
    def action_independent(self, omega: LinearForm, u: T) -> bool:
        ...

    @abstractmethod
    def action(self, omega: LinearForm, u: T) -> T:
        ...


def fold(forest: DecoratedForest, target: OperatedLocalityTarget[T]) -> T:
    """Evaluate a forest in a target: the unique structure-preserving map.

    Raises LocalityViolation at the first failed independence check, naming
    the offending subforest.
    """
    if not forest.trees:
        return target.unit()
    for i, t in enumerate(forest.trees):  # a tree, then its product
        val = fold(DecoratedForest(t.children), target)
        if not target.action_independent(t.decoration, val):
            raise LocalityViolation(
                f"decoration of vertex {t.root_id} is not independent of the "
                "image of its children"
            )
        val = target.action(t.decoration, val)
        if i and not target.independent(acc, val):
            raise LocalityViolation(
                f"images of the tree rooted at {t.root_id} and of its "
                "preceding factors are not independent in the target"
            )
        acc = target.product(acc, val) if i else val
    return acc


class SymbolicIntegralTarget(
    Frozen, OperatedLocalityTarget[RegularizedIntegral]
):
    """The target whose fold reproduces the closed-form regularization.

    Values are the symbols (exponent, cosecant factors); the action of a
    decoration L sends (E, factors) to (E + L, factors + {E + L}), matching
    one integration step, and independence is Q-orthogonality of all
    involved forms.
    """

    __slots__ = _fields = ("Q",)
    Q: InnerProduct

    def __init__(self, Q: InnerProduct) -> None:
        object.__setattr__(self, "Q", Q)

    def unit(self) -> RegularizedIntegral:
        return RegularizedIntegral.make(ZERO_FORM, ())

    def _forms(self, u: RegularizedIntegral) -> tuple[LinearForm, ...]:
        # The unit contributes no forms, so it is independent of everything.
        if not u.factors and u.exponent.is_zero():
            return ()
        return (u.exponent,) + u.factors

    def independent(
        self, u: RegularizedIntegral, v: RegularizedIntegral
    ) -> bool:
        return all(
            is_independent(self.Q, a, b)
            for a in self._forms(u)
            for b in self._forms(v)
        )

    def product(
        self, u: RegularizedIntegral, v: RegularizedIntegral
    ) -> RegularizedIntegral:
        return RegularizedIntegral.make(
            u.exponent + v.exponent, u.factors + v.factors
        )

    def action_independent(
        self, omega: LinearForm, u: RegularizedIntegral
    ) -> bool:
        return all(
            is_independent(self.Q, omega, f) for f in self._forms(u)
        )

    def action(
        self, omega: LinearForm, u: RegularizedIntegral
    ) -> RegularizedIntegral:
        new_exponent = omega + u.exponent
        return RegularizedIntegral.make(
            new_exponent, u.factors + (new_exponent,)
        )


def symbolic_integral_target(Q: InnerProduct) -> SymbolicIntegralTarget:
    """Target over regularized-integral symbols; fold equals regularize."""
    return SymbolicIntegralTarget(Q)


class BetaPhiTarget(Frozen, OperatedLocalityTarget[LinearForm]):
    """Additive monoid of linear forms with the action u -> phi(omega + u).

    ``phi`` must be independent of the identity map on the decorations in
    play; the runtime orthogonality checks of the fold surface any
    violation as LocalityViolation.
    """

    __slots__ = _fields = ("phi", "Q")
    phi: Callable[[LinearForm], LinearForm]
    Q: InnerProduct

    def __init__(
        self, phi: Callable[[LinearForm], LinearForm], Q: InnerProduct
    ) -> None:
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "Q", Q)

    def unit(self) -> LinearForm:
        return ZERO_FORM

    def independent(self, u: LinearForm, v: LinearForm) -> bool:
        return is_independent(self.Q, u, v)

    def product(self, u: LinearForm, v: LinearForm) -> LinearForm:
        return u + v

    def action_independent(self, omega: LinearForm, u: LinearForm) -> bool:
        return is_independent(self.Q, omega, u)

    def action(self, omega: LinearForm, u: LinearForm) -> LinearForm:
        return self.phi(omega + u)


def branched(
    phi: Callable[[LinearForm], LinearForm],
    forest: DecoratedForest,
    Q: InnerProduct,
) -> LinearForm:
    """The phi-branched map: fold with the additive-form target."""
    return fold(forest, BetaPhiTarget(phi, Q))
