"""Associative algebras over the commutative rings of `rings`.

An algebra is stored exactly like a FiniteRing (basis plus structure
constants over Z/p^k) without the commutativity requirement, together with
a central embedding of its coefficient ring.  Ideals of algebras are plain
Howell row sets closed under left and right multiplication; the commutative
Ideal class does not apply here.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InputError, InvariantViolation
from .rings import FiniteRing, QuotientRing, RingMap, _projection, _quotient_structure, _smith_coordinates

__all__ = [
    "AssocAlgebra",
    "group_algebra",
    "matrix_algebra",
    "two_sided_ideal_rows",
    "quotient_algebra",
]


class AssocAlgebra(FiniteRing):
    """Finite associative algebra with a marked central coefficient ring."""

    def __init__(self, p, k, table, one, base: FiniteRing, base_embed, name="E"):
        super().__init__(p, k, np.asarray(table), np.asarray(one), name)
        self.base = base
        self.base_embed = np.asarray(base_embed, dtype=np.int64) % self.char
        if self.base_embed.shape != (base.n, self.n):
            raise InputError("base embedding has the wrong shape")

    # commutative-only inherited machinery is switched off
    @property
    def _local_data(self):
        raise InputError("local-ring analysis is for commutative rings only")

    def check_ring(self) -> None:
        raise InputError("use check_algebra for associative algebras")

    def scalar(self, a) -> np.ndarray:
        """Image of a base-ring element."""
        return (np.asarray(a, dtype=np.int64) @ self.base_embed) % self.char

    def amul(self, a, x) -> np.ndarray:
        """Base-scalar action a . x."""
        return self.mul(self.scalar(a), x)

    def right_mul_matrix(self, x) -> np.ndarray:
        """Matrix M with y @ M = y * x; a stack of them for a stack of elements."""
        return np.tensordot(np.asarray(x, dtype=np.int64), self.table, axes=(-1, 1)) % self.char

    def check_algebra(self) -> None:
        """The unit on every basis element, associativity, and the base as a
        central unital subring; the unit and centrality each on one stack,
        naming the first failing index.  No constructor calls it; the tests
        do, and perfbench's tracer wraps it by name."""
        n = self.n
        if n == 0:
            return
        eye = np.eye(n, dtype=np.int64)
        left, right = self.mul_matrix(self.one), self.right_mul_matrix(self.one)  # rows one * e_i, e_i * one
        bad = np.flatnonzero(((left != eye) | (right != eye)).any(axis=1))
        if bad.size:
            raise InvariantViolation(f"one fails on basis {bad[0]}")
        self._check_associativity()
        RingMap(self.base, self, self.base_embed, name="base").check_hom()
        embed = self.base_embed  # row a is the image of base basis element a
        bad = np.flatnonzero((self.mul_matrix(embed) != self.right_mul_matrix(embed)).any(axis=(1, 2)))
        if bad.size:
            raise InvariantViolation(f"base image {bad[0]} is not central")

    def __repr__(self):
        return f"<{self.name}: dim {self.n} algebra over {self.base.name}>"


# ---- constructors ----------------------------------------------------


# largest dimension |G| * dim(base) of a group algebra: its (n, n, n) table
# is built whole, and `ch_quotient` closes an ideal on its n(n+1)/2 pairs
MAX_GROUP_ALGEBRA_DIM = 64


def group_algebra(base: FiniteRing, group, name: str | None = None) -> AssocAlgebra:
    """base[G] with basis g x (base basis), of dimension at most
    MAX_GROUP_ALGEBRA_DIM."""
    m, e = group.m, base.n
    n = m * e
    if n > MAX_GROUP_ALGEBRA_DIM:
        raise InputError(f"group algebra of dimension {m} * {e} = {n} exceeds {MAX_GROUP_ALGEBRA_DIM}")
    table = np.zeros((n, n, n), dtype=np.int64)
    for g1 in range(m):
        for g2 in range(m):
            g3 = group.mul(g1, g2)
            blk = slice(g3 * e, (g3 + 1) * e)
            for a1 in range(e):
                for a2 in range(e):
                    table[g1 * e + a1, g2 * e + a2, blk] = base.table[a1, a2]
    one = np.zeros(n, dtype=np.int64)
    one[group.identity * e : (group.identity + 1) * e] = base.one
    embed = np.zeros((e, n), dtype=np.int64)
    embed[:, group.identity * e : (group.identity + 1) * e] = np.eye(e, dtype=np.int64)
    return AssocAlgebra(base.p, base.k, table, one, base, embed, name=name or f"{base.name}[{group.name}]")


def matrix_algebra(base: FiniteRing, size: int, name: str | None = None) -> AssocAlgebra:
    """size x size matrices over the base, basis E_ij x (base basis).  Only
    the tests and `perfbench/tests` build one."""
    e = base.n
    n = size * size * e

    def idx(i, j, a):
        return (i * size + j) * e + a

    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(size):
        for j in range(size):
            for a1 in range(e):
                for j2 in range(size):
                    for a2 in range(e):
                        # E_ij E_j j2 = E_i j2
                        for l, c in enumerate(base.table[a1, a2]):
                            if c:
                                table[idx(i, j, a1), idx(j, j2, a2), idx(i, j2, l)] = c
    one = np.zeros(n, dtype=np.int64)
    for i in range(size):
        one[idx(i, i, 0) : idx(i, i, 0) + e] = base.one
    embed = np.zeros((e, n), dtype=np.int64)
    for a in range(e):
        for i in range(size):
            embed[a, idx(i, i, a)] = 1
    return AssocAlgebra(base.p, base.k, table, one, base, embed, name=name or f"M{size}({base.name})")


# ---- ideals ---------------------------------------------------------


def two_sided_ideal_rows(alg: AssocAlgebra, gens) -> np.ndarray:
    """Howell basis of the two-sided ideal generated by `gens`.

    A G A = (A G) A, and both factors close in one step: the left ideal
    A G is the span of the products e_a * g, and the right orbit of its
    Howell basis spans (A G) A, which is already two-sided.
    """
    n = alg.n
    rows = np.asarray(gens, dtype=np.int64).reshape(-1 if n else 0, n) % alg.char
    if n == 0 or rows.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    left = np.matmul(rows, alg.table) % alg.char  # left[a] = e_a * rows
    h = linalg.howell_form(left.reshape(-1, n), alg.p, alg.k, ncols=n)
    return linalg.howell_form(alg.orbit(h), alg.p, alg.k, ncols=n)


# ---- quotients -------------------------------------------------------


def quotient_algebra(alg: AssocAlgebra, ideal_h: np.ndarray, name: str | None = None) -> QuotientRing:
    """Quotient by a two-sided ideal given by its Howell basis, taken as
    given (`rings` module docstring), as from `two_sided_ideal_rows`."""
    new_k, proj, lift = _smith_coordinates(alg.p, alg.k, alg.n, ideal_h)
    return _presented_quotient(alg, alg.base, alg.base_embed, new_k, proj, lift, name)


def _presented_quotient(alg: AssocAlgebra, base: FiniteRing, base_rows, new_k: int, proj, lift, name=None) -> QuotientRing:
    """The quotient of `alg` onto (Z/p^new_k)^n' by `proj` (n, n'), `lift` a
    section of it, over `base`, whose basis element a is the class of base_rows[a].

    The quotient is not checked as an algebra: `proj` is a checked unital
    homomorphism onto it (`rings._projection`, which fails when the killed
    rows are not two-sided), so it inherits associativity and the unit
    from the algebra `alg`, and the image of the central base is central.
    The base map is that of `alg` followed by `proj`, or in
    `ch_base_change` the one argued for in the `gma` module docstring.
    """
    table, one = _quotient_structure(alg.p, alg.k, new_k, alg.table, alg.one, proj, lift)
    embed = (np.asarray(base_rows, dtype=np.int64) @ proj) % alg.p**new_k
    out = AssocAlgebra(alg.p, new_k, table, one, base, embed, name=name or f"{alg.name}/J")
    return QuotientRing(out, _projection(alg, out, proj, lift), lift)
