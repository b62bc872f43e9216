"""Fitting ideals and determinants over the finite rings in `rings`.

A module R^g / (relations) is given by its ring-coefficient presentation,
a (rels, g, n) array.  All maximal minors of a presentation come from one
column-by-column Laplace sweep that computes the minor of each row subset
once and shares it with every larger subset, and `ring_det` is the
one-minor case of that sweep.  `maximal_multiples` spans m*M, from
which `towers` picks minimal generators by Nakayama.  It multiplies the
rows by the generators of m as an ideal (`FiniteRing.maximal_generators`),
not by every basis row of m: for an R-submodule M spanned additively by
rows y, m*M = sum_s s*R*M = sum_s s*M is the span of the products s*y, so
its cost grows with the embedding dimension, not with dim m.  That needs
M to be an R-submodule; every caller passes the basis of an ideal or the
kernel of a syzygy map, and an arbitrary row set would lose the products
by the other rows of m.

The library takes the length of a quotient of ideals I/J from sizes,
log|I| - log|J|.  The tests check that identity, the Fitting ideals and
the Nakayama counts against a module kept as its relation span
(`FinModule` in `tests/oracles.py`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetExceeded, InputError
from .rings import FiniteRing, Ideal

__all__ = [
    "fitting_ideal",
    "ring_det",
    "maximal_multiples",
]


def maximal_multiples(r: FiniteRing, rows, g: int) -> np.ndarray:
    """Rows spanning m*M, for m the maximal ideal of the local ring r and M
    the additive span of the rows in r^g, which must be an R-submodule:
    each row times each generator of m (module docstring)."""
    return r.orbit(rows, g, by=r.maximal_generators)


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
    if g == 0:  # the unit ideal, whose Howell basis is the identity
        return Ideal.from_basis(r, np.eye(r.n, dtype=np.int64))
    if rels < g:
        return Ideal.from_basis(r, np.zeros((0, r.n), dtype=np.int64))
    if math.comb(rels, g) > budget:
        raise BudgetExceeded(f"minor count {math.comb(rels, g)} exceeds budget {budget}")
    return Ideal(r, _maximal_minors(r, pres))
