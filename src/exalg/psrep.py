"""Trace/determinant pairs on a finite group and their algebra extensions.

A pair (t, d) models the trace and determinant of a virtual 2-dimensional
representation: d is multiplicative and unit-valued, t(1) = 2, and the pair
satisfies the degree-2 trace identity

    t(g) t(h) = t(gh) + d(h) t(g h^-1).

The pair extends to the group algebra E = A[G]: t linearly, and the
determinant as the quadratic map d~(x) = (t(x)^2 - t(x^2)) / 2, which is
where the odd-characteristic restriction earns its keep.

This module is also the home of the character splitter,
`residual_split`, which writes (t, d) over a field as chi1 + chi2 with
chi1 chi2 = d, classifying the residual.  It takes the roots of
x^2 - t x + d from one stacked search (`_quadratic_roots`) and fills every
choice of roots at the generators multiplicatively over the group
(`_character_split`).  A fill with no clash agrees on every edge (a, g) of
the Cayley graph, so it is a homomorphism of a finite group and hence
unit-valued; then t = chi + d/chi says exactly chi (t - chi) = d, and
chi2 = t - chi needs no inverse.  Over the quotient by a reducibility
ideal the split is read off the GMA instead (`gma` module docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebras import AssocAlgebra, group_algebra
from .errors import BudgetExceeded, InputError, InvariantViolation
from .groups import GroupChar, MarkedGroup
from .rings import FiniteRing, RingMap

__all__ = [
    "Pseudorep2",
    "validate_pseudorep",
    "psrep_from_chars",
    "psrep_base_change",
    "extended_forms",
    "residual_split",
]


@dataclass(eq=False)
class Pseudorep2:
    """Trace and determinant arrays indexed by group element."""

    group: MarkedGroup
    ring: FiniteRing
    t: np.ndarray  # (m, n)
    d: np.ndarray  # (m, n)
    name: str = "psr"

    def __post_init__(self):
        m, n = self.group.m, self.ring.n
        self.t = np.asarray(self.t, dtype=np.int64).reshape(m, n) % self.ring.char
        self.d = np.asarray(self.d, dtype=np.int64).reshape(m, n) % self.ring.char
        self.t.flags.writeable = self.d.flags.writeable = False  # so `validation` cannot go stale
        self._validation = None

    @property
    def validation(self) -> dict:
        """`validate_pseudorep` of this pair, run once: t and d are read-only."""
        if self._validation is None:
            self._validation = validate_pseudorep(self)
        return self._validation

    def check(self) -> None:
        report = self.validation
        if not report["ok"]:
            first = report["failures"][0]
            raise InvariantViolation(f"pseudorep law fails: {first}")

    def __repr__(self):
        return f"<{self.name}: {self.group.name} over {self.ring.name}>"


def validate_pseudorep(psr: Pseudorep2, max_failures: int = 10) -> dict:
    """Check every defining law; report witnessed failures instead of raising.

    The laws are t(1) = 2 and d(1) = 1; then, for each g, d(g) a unit and
    2 d(g) = t(g)^2 - t(g^2); then, for each pair (g, h), multiplicativity
    of d, t(gh) = t(hg) and the trace identity.  Each law is evaluated on
    one stack (over all g, or over the |G| x |G| grid), and the failures
    are listed in that order, pairs row-major.  The list is cut as a loop
    over the elements would cut it: the length is checked against
    `max_failures` before each g and after each pair, so it may run up to
    2 past the limit.  d(g) d(g^-1) = 1 already proves d(g) a unit, so
    `is_unit` is called only on the rows where that product is not 1.
    """
    grp, r = psr.group, psr.ring
    t, d, table = psr.t, psr.d, grp.table
    failures = []

    def bad(law, where, lhs, rhs):
        failures.append(
            {
                "law": law,
                "at": where,
                "lhs": [int(c) for c in np.atleast_1d(lhs)],
                "rhs": [int(c) for c in np.atleast_1d(rhs)],
            }
        )

    e = grp.identity
    two = r.from_int(2)
    if not np.array_equal(t[e], two):
        bad("t(1) = 2", (e,), t[e], two)
    if not np.array_equal(d[e], r.one):
        bad("d(1) = 1", (e,), d[e], r.one)
    inv2 = pow(2, -1, r.char) if r.n else 0
    # d is determined by t in odd characteristic
    want = (inv2 * (r.mul(t, t) - t[np.diagonal(table)])) % r.char
    vouched = (r.mul(d, d[grp._inv]) == r.one).all(axis=1)
    d_ok = (d == want).all(axis=1)
    for g in np.flatnonzero(~(vouched & d_ok)):
        if len(failures) >= max_failures:
            break
        if not vouched[g] and not r.is_unit(d[g]):
            bad("d unit-valued", (int(g),), d[g], r.one)
        if not d_ok[g]:
            bad("2 d(g) = t(g)^2 - t(g^2)", (int(g),), d[g], want[g])
    if len(failures) >= max_failures:
        return {"ok": not failures, "failures": failures}
    # d(h) t(g h^-1) for every pair, read off all products d(x) t(y)
    hs = np.arange(grp.m)[None, :]
    rhs = (t[table] + r.mul_outer(d, t)[hs, table[:, grp._inv]]) % r.char
    laws = [
        ("d(gh) = d(g) d(h)", d[table], r.mul_outer(d, d)),
        ("t(gh) = t(hg)", t[table], t[table.T]),
        ("t(g)t(h) = t(gh) + d(h) t(gh^-1)", r.mul_outer(t, t), rhs),
    ]
    held = [(lhs == rhs).all(axis=2) for _, lhs, rhs in laws]
    for g, h in zip(*np.nonzero(~np.logical_and.reduce(held))):
        for (law, lhs, rhs), ok in zip(laws, held):
            if not ok[g, h]:
                bad(law, (int(g), int(h)), lhs[g, h], rhs[g, h])
        if len(failures) >= max_failures:
            break
    return {"ok": not failures, "failures": failures}


def psrep_from_chars(chi1: GroupChar, chi2: GroupChar, name: str = "psr") -> Pseudorep2:
    """Sum of two characters defined on the whole group."""
    grp, r = chi1.group, chi1.ring
    if chi2.group is not grp or chi2.ring is not r:
        raise InputError("characters must share group and ring")
    if set(chi1.domain) != set(range(grp.m)) or set(chi2.domain) != set(range(grp.m)):
        raise InputError("characters must be defined on the whole group")
    t = np.array([r.add(chi1(g), chi2(g)) for g in grp.elements()])
    d = np.array([r.mul(chi1(g), chi2(g)) for g in grp.elements()])
    return Pseudorep2(grp, r, t, d, name=name)


def psrep_base_change(psr: Pseudorep2, f: RingMap, name: str | None = None) -> Pseudorep2:
    if f.src is not psr.ring:
        raise InputError("map source must match the coefficient ring")
    t = np.array([f(psr.t[g]) for g in psr.group.elements()])
    d = np.array([f(psr.d[g]) for g in psr.group.elements()])
    return Pseudorep2(psr.group, f.dst, t, d, name=name or psr.name)


# ---- extension to the group algebra ---------------------------------


@dataclass(eq=False)
class TraceForms:
    """The forms of a trace t(x) = x @ t_matrix on `algebra` over `base`.

    d~(x) = (t(x)^2 - t(x^2)) / 2 is the determinant, b_d its polarization
    and ch_el the polarized Cayley-Hamilton element.  `t_el`, `d_el` and
    `b_d` take one element or equal-length stacks of them.
    """

    algebra: AssocAlgebra
    base: FiniteRing
    t_matrix: np.ndarray  # (algebra.n, base.n)

    def t_el(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=np.int64) @ self.t_matrix) % self.base.char

    def d_el(self, x) -> np.ndarray:
        """d~(x) = (t(x)^2 - t(x^2)) / 2."""
        return (pow(2, -1, self.base.char) * self.b_d(x, x)) % self.base.char

    def b_d(self, x, y) -> np.ndarray:
        """Polarization of d~: t(x)t(y) - t(xy)."""
        a = self.base
        return (a.mul(self.t_el(x), self.t_el(y)) - self.t_el(self.algebra.mul(x, y))) % a.char

    def ch_el(self, x, y) -> np.ndarray:
        """Polarized Cayley-Hamilton element xy + yx - t(x) y - t(y) x + b_d(x, y)."""
        al = self.algebra
        out = al.add(al.mul(x, y), al.mul(y, x))
        out = al.sub(out, al.amul(self.t_el(x), y))
        out = al.sub(out, al.amul(self.t_el(y), x))
        return al.add(out, al.scalar(self.b_d(x, y)))


def extended_forms(psr: Pseudorep2) -> TraceForms:
    """(t, d) spread over E = A[G], once `psr` passes its check."""
    psr.check()
    a, m = psr.ring, psr.group.m
    # t as a Z/p^k-linear map E -> A: basis (g, a_j) -> a_j * t(g)
    return TraceForms(group_algebra(a, psr.group), a, a.mul_matrix(psr.t).reshape(m * a.n, a.n))


# ---- the character splitter ----------------------------------------

# largest field `residual_split` searches for roots
_ROOT_FIELD_LIMIT = 2500


def _quadratic_roots(r: FiniteRing, t_rows, d_rows) -> list[list[np.ndarray]]:
    """For each row i, the roots of x^2 - t_i x + d_i in r, in element order.

    The polynomials of all rows are evaluated together on one
    `r.element_blocks` stack at a time; with no rows nothing is
    enumerated.
    """
    roots: list[list[np.ndarray]] = [[] for _ in range(len(t_rows))]
    if not roots:
        return roots
    for xs in r.element_blocks(None):
        # (row, x): x^2 - t_row x + d_row
        vals = (r.mul(xs, xs)[None] - r.mul_outer(t_rows, xs) + d_rows[:, None]) % r.char
        for out, hit in zip(roots, ~vals.any(axis=2)):
            out.extend(xs[hit])
    return roots


def _min_generating_set(grp: MarkedGroup) -> list[int]:
    gens: list[int] = []
    closure = {grp.identity}
    for g in sorted(grp.elements(), key=lambda g: (-grp.order_of(g), g)):
        if g in closure:
            continue
        gens.append(g)
        closure = set(grp.subgroup_closure(gens))
        if len(closure) == grp.m:
            break
    if len(closure) != grp.m:
        raise InvariantViolation("failed to generate the group")
    return gens


def _multiplicative_fill(grp: MarkedGroup, gens: list[int], values, one, mul) -> dict | None:
    """{g: value} on the subgroup generated by `gens`, extended from `values`
    at the generators by products `mul`; None when two products disagree."""
    out = {grp.identity: one}
    frontier = [grp.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, x in zip(gens, values):
                c, val = grp.mul(a, g), mul(out[a], x)
                if c not in out:
                    out[c] = val
                    nxt.append(c)
                elif not np.array_equal(out[c], val):
                    return None
        frontier = nxt
    return out


def _character_split(psr: Pseudorep2, gens: list[int], per_gen: list) -> tuple | None:
    """Write (t, d) as chi1 + chi2 with chi1 chi2 = d.

    Every choice of chi1 values at the generators `gens`, one from each list
    of `per_gen`, is filled multiplicatively over the group (a clash drops
    it) and kept when chi1 (t - chi1) = d, checked on one stack; chi2 is
    t - chi1.  Returns the lexicographically first pair as checked
    characters, or None when no choice is kept.
    """
    grp, r = psr.group, psr.ring
    found = set()
    for values in itertools.product(*per_gen):
        fill = _multiplicative_fill(grp, gens, values, r.one.copy(), r.mul)
        if fill is None:
            continue
        chi = np.array([fill[g] for g in grp.elements()])
        chi2 = r.sub(psr.t, chi)
        if np.array_equal(r.mul(chi, chi2), psr.d):
            keys = [tuple(x.ravel().tolist()) for x in (chi, chi2)]
            found.add((min(keys), max(keys)))
    if not found:
        return None
    shape = (grp.m, r.n)
    chars = tuple(GroupChar(grp, r, dict(enumerate(np.reshape(key, shape))), name="chi") for key in min(found))
    for chi in chars:
        chi.check()
    return chars


def _chars_equal(c1: GroupChar, c2: GroupChar) -> bool:
    return set(c1.domain) == set(c2.domain) and all(np.array_equal(c1(g), c2(g)) for g in c1.domain)


def _unsplit(reason: str, case: str) -> dict:
    return {"split": False, "unsupported": True, "reason": reason, "chars": None, "case": case}


def residual_split(psr: Pseudorep2) -> dict:
    """Try to write (t, d) over a field as chi1 + chi2 and chi1 * chi2.

    Returns a report dict.  `unsupported` is set both when some element has
    an irreducible characteristic polynomial and when every element splits
    pointwise but no globally multiplicative assignment exists.  `case`
    names the residual: "irreducible", "matrix" (pointwise split with no
    multiplicative assignment), "coincident" (chi1 = chi2) or "split".
    """
    grp, f = psr.group, psr.ring
    if f.k != 1 or not f.is_local or not f.maximal_ideal().is_zero():
        raise InputError("residual splitting expects coefficients in a field")
    psr.check()
    if f.size > _ROOT_FIELD_LIMIT:
        raise BudgetExceeded("square-root search field too large")
    # pointwise roots of x^2 - t x + d
    roots = _quadratic_roots(f, psr.t, psr.d)
    bare = [g for g in grp.elements() if not roots[g]]
    if bare:
        return _unsplit(f"irreducible characteristic polynomial at element {bare[0]}", "irreducible")
    # backtracking over a minimal generating set
    gens = _min_generating_set(grp)
    chars = _character_split(psr, gens, [roots[g] for g in gens])
    if chars is None:
        return _unsplit("splits pointwise but admits no multiplicative assignment", "matrix")
    case = "coincident" if _chars_equal(*chars) else "split"
    return {"split": True, "unsupported": False, "reason": "", "chars": chars, "case": case}

