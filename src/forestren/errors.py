"""Exception hierarchy shared by every forestren module.

All library errors derive from :class:`ForestrenError` so callers can catch
the whole family at once; the CLI maps subfamilies onto exit codes.
"""

from __future__ import annotations


class ForestrenError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ForestrenError):
    """Input text does not conform to the forest grammar."""


class TruncationBelowDegree(ForestrenError, ValueError):
    """A series truncation lower than the degree of the forest it expands."""


class NumeratorTooLarge(ForestrenError, ValueError):
    """A numerator larger than the computation asked to build it admits."""


class InvalidArgument(ForestrenError, ValueError):
    """An argument that the called function does not accept."""


class NonPositiveWeight(ForestrenError):
    """A vertex weight (self-pairing of its decoration) is zero or negative."""


class LocalityViolation(ForestrenError):
    """Two values that must be independent (orthogonal) pair nontrivially."""


class NotProperlyDecorated(ForestrenError):
    """A forest whose vertex decorations are not pairwise orthogonal and nonzero."""


class VariableMismatch(ForestrenError):
    """Series operands or substitution images use different variable sets."""


class NotDivisible(ForestrenError):
    """Exact division of a series by a variable failed on some term."""


class SingularGram(ForestrenError):
    """A Gram subsystem has no unique solution (invalid explicit input)."""


class IndexOutOfRange(ForestrenError):
    """A linear form uses a basis index outside the inner product's active set."""


class DomainError(ForestrenError):
    """A numeric argument lies outside the admissible domain."""


class ConvergenceFailure(ForestrenError):
    """Quadrature refinement exhausted its budget before reaching tolerance."""
