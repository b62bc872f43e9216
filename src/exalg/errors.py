"""Exception types shared across the package."""

__all__ = [
    "InvariantViolation",
    "NonFreeQuotientError",
    "BudgetExceeded",
    "InputError",
]


class InvariantViolation(Exception):
    """A verified structural invariant failed; indicates corrupt input or a bug."""


class NonFreeQuotientError(Exception):
    """The additive group of a quotient or subring is not free over a single
    Z/p^j, so it cannot be presented by structure constants in this model."""


class BudgetExceeded(Exception):
    """An enumeration exceeded its explicit resource budget."""


class InputError(ValueError):
    """Malformed or out-of-contract input data."""
