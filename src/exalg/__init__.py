"""Exact computational algebra over finite rings and finite groups.

Pseudorepresentations of dimension two, Cayley-Hamilton quotients,
generalized matrix algebras, reducibility ideals, ordinary quotients,
truncated-DVR towers, and the numerical isomorphism criterion, with
every construction backed by a brute-force oracle at test time; the
oracles live in `tests/`, never in the package.  All arithmetic is
exact; no floats anywhere.
"""

from . import algebras, gma, groups, linalg, modules, ordinary, psrep, rings, scenarios, serialize, towers
from .errors import BudgetExceeded, InputError, InvariantViolation, NonFreeQuotientError

__all__ = [
    "BudgetExceeded",
    "InputError",
    "InvariantViolation",
    "NonFreeQuotientError",
    "algebras",
    "gma",
    "groups",
    "linalg",
    "modules",
    "ordinary",
    "psrep",
    "rings",
    "scenarios",
    "serialize",
    "towers",
]
