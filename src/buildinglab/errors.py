"""Shared exception types.

Every module raises from this small vocabulary so that callers (and the CLI)
can tell configuration mistakes apart from honest mathematical failure.
"""


class BuildinglabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(BuildinglabError):
    """A field or geometry specification string is malformed or names
    parameters outside the supported range (non-prime p, q not a prime
    power, non-positive precision)."""


class BoundExceeded(BuildinglabError):
    """Enumeration passed the configured element bound; the input system is
    infinite or simply too large for desk scale."""


class DivisionByZero(BuildinglabError):
    """Multiplicative inverse of zero requested."""


class PrecisionExhausted(BuildinglabError):
    """A truncated-field operation cancelled every significant digit, so the
    result carries no information at the working precision."""


class FrobeniusNotInvertible(BuildinglabError):
    """Frobenius preimage requested for an element that is visibly not a
    p-th power."""


class NotReduced(BuildinglabError):
    """A word handed in as a reduced expression is not reduced (or does not
    multiply to the element it claims to express)."""


class NotFound(BuildinglabError):
    """An exhaustive search that is guaranteed a witness by theory came up
    empty; this signals a broken input structure, not a usage error."""


class NotUnique(BuildinglabError):
    """A search that must produce exactly one witness produced several."""


class SearchBudgetExceeded(BuildinglabError):
    """An automorphism search visited more branch points than its budget
    allows before completing."""
