"""Finitely presented modules over the finite rings in `rings`.

A module is R^g modulo a relation submodule.  Relations are stored as the
Howell basis of their additive span inside (Z/p^k)^(g*n); the span is closed
under the ring action, so additive data is enough for sizes, lengths and
annihilators.  Fitting ideals need the finer ring-coefficient presentation
and take it as a separate argument; all their maximal minors come from one
column-by-column Laplace sweep that computes the minor of each row subset
once and shares it with every larger subset, and `ring_det` is the
one-minor case of that sweep.

The library takes the length of a quotient of ideals I/J from sizes,
log|I| - log|J|; `module_from_ideal_quotient`, the presentation of I/J
as a module, now serves the tests as the oracle for that identity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .errors import BudgetExceeded, InputError, InvariantViolation
from .rings import FiniteRing, Ideal

__all__ = [
    "FinModule",
    "fitting_ideal",
    "ring_det",
    "maximal_multiples",
    "module_from_ideal_quotient",
]


def _right_kernel_rows(rows: np.ndarray, p: int, k: int) -> np.ndarray:
    """Rows v with rows @ v^T = 0; over Z/p^k the span is the double annihilator."""
    return linalg.kernel(rows.T.copy(), p, k)


class FinModule:
    """R^g modulo an R-stable additive relation span.

    With `check` the relation rows are Howell-reduced and their span is
    verified R-stable; without it they must already be the Howell basis
    of an R-stable span, as the builders below hand over.
    """

    def __init__(self, ring: FiniteRing, gens_count: int, relations, check: bool = True):
        self.ring = ring
        self.g = int(gens_count)
        width = self.g * ring.n
        if width == 0:
            rows = np.zeros((0, 0), dtype=np.int64)
        else:
            rows = np.asarray(relations, dtype=np.int64).reshape(-1, width) % ring.char
        self.relations = linalg.howell_form(rows, ring.p, ring.k, ncols=width) if check else rows
        if check and self.relations.shape[0] and ring.n:
            self._check_stable()

    def _check_stable(self):
        r = self.ring
        # one pass of the full ring action must stay inside the span
        combined = linalg.howell_form(
            np.vstack([self.relations, r.orbit(self.relations, self.g)]), r.p, r.k, ncols=self.g * r.n
        )
        if not linalg.span_equal(combined, self.relations):
            raise InvariantViolation("relation span is not stable under the ring action")

    @staticmethod
    def from_presentation(ring: FiniteRing, pres) -> "FinModule":
        """Module of the (rels, g, n) array of ring-coefficient relation rows.

        The submodule of R^g the relations generate is the additive span of
        the products v * e_j of each relation v with each basis element e_j,
        so one orbit of their Howell basis closes it.
        """
        pres = np.asarray(pres, dtype=np.int64)
        if pres.ndim != 3 or pres.shape[2] != ring.n:
            raise InputError("presentation must be (rels, gens, ring_dim)")
        rels, g, n = pres.shape
        h = linalg.howell_form(pres.reshape(rels, g * n) % ring.char, ring.p, ring.k, ncols=g * n)
        if h.shape[0]:
            h = linalg.howell_form(ring.orbit(h, g), ring.p, ring.k, ncols=g * n)
        return FinModule(ring, g, h, check=False)

    # ---- size and length --------------------------------------------

    def log_size(self) -> int:
        """log_p of the module size."""
        total = self.g * self.ring.n * self.ring.k
        return total - linalg.span_log_size(self.relations, self.ring.p, self.ring.k)

    def is_zero(self) -> bool:
        return self.log_size() == 0

    def length(self) -> int:
        """Composition length over a local ring (all factors = residue field)."""
        res = self.ring.residue_log_size
        ls = self.log_size()
        if ls % res:
            raise InvariantViolation("module size is not a residue field power")
        return ls // res

    def minimal_generator_count(self) -> int:
        """dim of M/mM over the residue field."""
        r = self.ring
        width = self.g * r.n
        rows = self.relations
        if width:  # M/mM is R^g modulo the relations and m*R^g
            rows = np.vstack([rows, maximal_multiples(r, np.eye(width, dtype=np.int64), self.g)])
        h = linalg.howell_form(rows, r.p, r.k, ncols=width)
        ls = self.g * r.n * r.k - linalg.span_log_size(h, r.p, r.k)
        res = r.residue_log_size
        if ls % res:
            raise InvariantViolation("M/mM size is not a residue field power")
        return ls // res

    # ---- annihilator -------------------------------------------------

    def annihilator(self) -> Ideal:
        """{r in R : r * M = 0}, via membership as linear conditions."""
        r = self.ring
        if r.n == 0 or self.g == 0:
            return Ideal(r, np.eye(r.n, dtype=np.int64), _closed=True)
        rk = _right_kernel_rows(self.relations, r.p, r.k) if self.relations.shape[0] else np.eye(
            self.g * r.n, dtype=np.int64
        )
        if rk.shape[0] == 0:
            # relations fill the ambient module: M = 0
            return Ideal(r, np.eye(r.n, dtype=np.int64), _closed=True)
        # x kills M iff x (placed in block j) is orthogonal to the right
        # kernel of the relation span, for every generator slot j
        cons = [rk[:, j * r.n : (j + 1) * r.n].T for j in range(self.g)]
        big = np.hstack(cons)
        ann_rows = linalg.kernel(big, r.p, r.k)
        return Ideal(r, ann_rows, _closed=True)

    def __repr__(self):
        return f"<FinModule over {self.ring.name}: {self.g} gens, log size {self.log_size()}>"


def maximal_multiples(r: FiniteRing, rows, g: int) -> np.ndarray:
    """Rows spanning m*M, for m the maximal ideal of the local ring r and M
    the submodule of r^g the rows generate: each row times each basis row
    of m."""
    return r.orbit(rows, g, by=r.maximal_ideal().basis)


def module_from_ideal_quotient(r: FiniteRing, top: Ideal, bottom: Ideal) -> FinModule:
    """I/J as an R-module, generated by the Howell basis of I."""
    if not top.contains_ideal(bottom):
        raise InputError("quotient needs bottom contained in top")
    gens = top.basis
    m = gens.shape[0]
    if m == 0:
        return FinModule(r, 0, np.zeros((0, 0), dtype=np.int64), check=False)
    big = r.mul_matrix(gens).reshape(m * r.n, r.n)  # x -> sum x_i b_i
    rk = _right_kernel_rows(bottom.basis, r.p, r.k) if bottom.basis.shape[0] else np.eye(
        r.n, dtype=np.int64
    )
    cons = (big @ rk.T) % r.char if rk.shape[0] else np.zeros((m * r.n, 0), dtype=np.int64)
    rels = linalg.kernel(cons, r.p, r.k)
    return FinModule(r, m, rels, check=False)


# ---- Fitting ideals --------------------------------------------------


def _maximal_minors(r: FiniteRing, mat: np.ndarray) -> np.ndarray:
    """Determinants of every g-row submatrix of a (rels, g, n) array, g >= 1,
    one per row subset in `itertools.combinations` order.

    One Laplace sweep over the columns: the minor of row set T on the first
    j columns is sum_i (-1)^(i+j-1) a[T_i, j-1] * minor(T minus T_i, j-1),
    so each minor of each row subset is computed once and shared by every
    larger subset.
    """
    rels, g, _ = mat.shape
    if g > 6:
        raise BudgetExceeded("determinant size above the supported bound")
    mats = r.mul_matrix(mat[:, 1:])  # (rels, g-1, n, n)
    prev = mat[:, 0] % r.char
    index = {(t,): t for t in range(rels)}
    for j in range(2, g + 1):
        subsets = list(itertools.combinations(range(rels), j))
        rows = np.array(subsets)
        smaller = np.array([[index[s[:i] + s[i + 1 :]] for i in range(j)] for s in subsets])
        # every product a[t, j-1] * minor(S), then the ones each subset needs
        prods = np.matmul(prev, mats[:, j - 2]) % r.char  # (rels, C(rels, j-1), n)
        signs = np.array([(-1) ** (i + j - 1) for i in range(j)], dtype=np.int64)
        prev = np.einsum("sil,i->sl", prods[rows, smaller], signs) % r.char
        index = {s: c for c, s in enumerate(subsets)}
    return prev


def ring_det(r: FiniteRing, mat) -> np.ndarray:
    """Determinant of a square matrix of ring elements: the one-minor case
    of the shared minor sweep (O(g 2^g) ring products, not a g!-term sum)."""
    mat = np.asarray(mat, dtype=np.int64)
    g = mat.shape[0]
    if mat.shape[:2] != (g, g) or mat.shape[2] != r.n:
        raise InputError("determinant needs a (g, g, ring_dim) array")
    if g == 0:
        return r.one.copy()
    return _maximal_minors(r, mat)[0]


def fitting_ideal(r: FiniteRing, pres, budget: int = 5000) -> Ideal:
    """Zeroth Fitting ideal of the module presented by (rels, g, n) rows,
    generated by all g x g minors, computed together in one shared sweep."""
    pres = np.asarray(pres, dtype=np.int64)
    if pres.ndim != 3 or pres.shape[2] != r.n:
        raise InputError("presentation must be (rels, gens, ring_dim)")
    rels, g, _ = pres.shape
    if g == 0:
        return Ideal(r, np.eye(r.n, dtype=np.int64), _closed=True)
    if rels < g:
        return Ideal(r, np.zeros((0, r.n), dtype=np.int64), _closed=True)
    if math.comb(rels, g) > budget:
        raise BudgetExceeded(f"minor count {math.comb(rels, g)} exceeds budget {budget}")
    return Ideal(r, _maximal_minors(r, pres))
