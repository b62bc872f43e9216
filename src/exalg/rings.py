"""Finite commutative rings presented by structure constants over Z/p^k.

A ring here is a free Z/p^k-module with a fixed basis and a rank-3 array of
structure constants.  Elements are int64 coefficient vectors.  The odd-p
restriction keeps 2 invertible, which the degree-2 trace/determinant
machinery upstream relies on.

Local structure (radical, residue field) is carried, never searched.  A
ring is local exactly when it carries its residue map rho: R -> k, an
(n, e) array over F_p onto the reduced quotient, a field; m = ker rho is
formed, one `kernel_mod`, when first read.  The constructors set rho on
every local ring they build:
- Entry rings: Z/p^k and F_q map by the identity onto F_p and F_q.  For
  B local, B[t]/(t^N) keeps rho_B on the constant block, as m_B + tB[t]
  is nilpotent with quotient k (`DvrModel`: the first e coordinates).
  The h-levels of `towers` split by pi: T -> base, and ker(pi) is
  nilpotent, as x^2 = s x (s in m) and e_a^2 = t e_a; so pi^-1(m_base)
  is nilpotent with quotient k, and rho_T = pi . rho_base.
- R/I for R local and R/I != 0: I is proper, so it lies in m and
  rho_{R/I} = lift . rho_R, whose kernel m/I is nilpotent with a field
  as quotient.
- P = A x_C B for A and B local and C != 0: both projections of P are
  onto, so rad(P) = (m_A x m_B) meet P.  f(m_A) = m_C = g(m_B) puts a in
  m_A exactly when b is in m_B, for (a, b) in P, so rad(P) = ker(P -> A
  -> k) and rho_P = pr_A . rho_A.  A local alone is not enough: with
  B = C x D, P is A x D.
- A x_0 0 is A and 0 x_0 B is B: the nonzero factor's rho.
The other rings the constructors build are not local, and carry none.  A
`fiber_product` with a nonzero factor that is not local maps onto it, and
a nonzero quotient of a local ring is local.  Over C = 0, with two nonzero
factors, it is A x B, which holds the idempotent (1, 0), and a local ring
has no idempotents but 0 and 1.
A ring built from a table, and a quotient of a ring without rho (even a
local one, such as a factor of a product), carry none either: no stage
builds one, and `radical_rows` and `maximal_ideal` refuse it as not local.

`mul_matrix`, the left multiplication matrices, and the products built
on the table read the nonzero constants only from dimension _SPARSE_DIM
= 12 on; below it the dense contractions stay.  The tables of the glued
tower rings (dimension 29-47) have 0.6-3 % nonzero constants.  One sparse
view is cached per ring (`FiniteRing._sparse`): the nonzero t[i, j, l]
in runs of one output cell j*n + l, and again in runs of one first index
i.  `mul_matrix` sums each cell over its own constants: one gather, one
multiply, one `np.add.reduceat` and one scatter.  On the `mul_matrix`
and `orbit` inputs of one pass of each benchmark workload (2 cores,
numpy 2.4), dense is 3.5x faster at n <= 6 and 1.4x at n = 8, the two
tie at n = 10-12, and sparse is 1.5x faster at n = 16, 3x at n = 21-24
and 4-9x at n = 29-47.

Three contractions skip the zeros of both factors.  `mul_outer` (and
`orbit` with `by`, `Ideal.mul_ideal` and `modules.maximal_multiples`
through it) joins each nonzero x[a, i] of the left operand with the
constants of first index i (`_join`), keys each term x[a, i] t[i, j, l]
by (a, l) and sums ys[:, j] times it per key (`_add_products`).
`RingMap.check_hom` forms f(e_i e_j) = sum_x t[i, j, x] f(e_x) over the
nonzero constants of the source, and `fiber_product` applies its Smith
matrix w through the nonzero entries of w.  The joined paths form no
dense left multiplication matrix.  Gathers go in blocks of about
_GATHER_CELLS entries, so a join holds one block of products at a time;
each block adds its sums per key to the residues already in the output
and reduces them.  The terms of `check_hom` are the constants of the
source and those of the fibre coordinates the entries of w, so neither
outgrows the dense operand.  The terms of `mul_outer` grow with the
left operand's nonzero entries times the constants of their first
index, which on a dense table is up to n times the dense left matrices;
so `mul_outer` keeps the dense contraction when the join would hold
more than 1/_JOIN_BOUND = 1/4 of their n^2 entries per row.  That bound
reads only the nonzero positions of the input and the per-index counts
of the view.  It is a memory bound only: in a pass of each benchmark
workload, every `mul_outer` call on a ring past _SPARSE_DIM joins.  The
sums are exact in int64: a product key of `mul_outer` sums at most n^2
products of three residues, x[a, i] t[i, j, l] ys[b, j], and n^2 (char -
1)^3 < 2^63 is what `FiniteRing.__post_init__` enforces (a key split
over two blocks sums fewer raw products in each, plus one residue); the
keys of `check_hom` and of the fibre coordinates sum at most n products
of two residues.  The rings of `psrep-corpus` (n <= 8) stay below
_SPARSE_DIM and keep the dense contractions.

The associativity check compares (e_i e_j) e_l = sum_x t[i,j,x] t[x,l,m]
with e_i (e_j e_l) = sum_x t[j,l,x] t[i,x,m] on every basis triple.  From
_SPARSE_DIM on it forms only the products of two nonzero constants: the
left side joins the nonzero list of the table with itself, the third
index of the first constant against the first index of the second, the
right side the third index against the second index.  Each product is
keyed by (i, j, l, m) and summed per key mod p^k, and the two sides must
agree key by key; a key missing on one side sums to zero there.  The
joins of the benchmark rings have at most 13,358 terms.  The term count
is read off the per-index counts of the nonzero list before joining, and
past _ASSOC_TERMS (admissible tables such as F125[t]/t^42 reach 0.7-1.6
million) the check falls back to (ab)c = a(bc) on 200 triples drawn with
seed 0, summed over the sparse view.  Below _SPARSE_DIM the dense n^4
contraction is faster.

`maximal_generators` generates the maximal ideal m of a local ring with
the rows of its Howell basis whose pivot, column and entry p^v, is not
also a pivot of the Howell basis of m^2.  A dropped row minus the row of
m^2 with the same pivot lies in m and is zero up to and at that column,
so by the Howell property it is in the span of the later rows of m.  By
downward induction on the rows, the kept rows and m^2 span m; so the
ideal J they generate has J + m*m = m, and J = m by Nakayama (m is
nilpotent).  Over F_p the kept rows number dim m/m^2.  For an R-submodule
M spanned by rows y, m*M is then the Z/p^k-span of the products s*y over
the generators s, which `modules.maximal_multiples` forms.

A span goes into Howell form once, where its rows are formed: a function
that takes a span (`Ideal.from_basis`, `smith_form`, `_smith_coordinates`,
`quotient_ring` through the ideal it is given) takes its Howell basis as
given and reduces nothing.  Reducing again would change nothing, as the
Howell form H of a span is unique for it (Howell 1986; Storjohann 2000)
and H spans that span, so H is its own Howell form.  Raw rows handed to
such a function would give a wrong span silently; the tests check the
precondition on every call they make (`tests/conftest.py`).

`smith_form` takes the Howell form H of a relation span.  When every pivot
of H is 1, H is a reduced echelon form whose pivot columns c_0 < ... <
c_{r-1} are unit vectors, and the pivoting loop (`_smith_loop`) has a
closed form.  By induction on t, step t picks the 1 at (t, c_t): a column
only moves to a larger position, so columns left of c_t are the original
ones, where row t is zero, and pivot columns not yet used sit where they
started.  The loop swaps column t with column c_t, clears nothing below
(column c_t is e_t), and clears row t by column operations that change no
other row of the matrix.  So exps is 0 on the first r positions and k on
the rest; winv holds the rows of H, then e_c for each non-pivot column c
in its final position; and w holds e_{c_t} at position t, then e_c -
sum_t H[t, c] e_{c_t} for each non-pivot column c.  The final positions
are the loop's r swaps, replayed on a list.  A pivot p^v with v > 0
keeps the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import BudgetExceeded, InputError, InvariantViolation, NonFreeQuotientError

__all__ = [
    "FiniteRing",
    "Ideal",
    "RingMap",
    "QuotientRing",
    "zmod_ring",
    "field_ring",
    "truncated_poly_ring",
    "quotient_ring",
    "fiber_product",
    "embedding_dimension",
    "gorenstein_test",
    "smith_form",
    "DvrModel",
]

# elements per stack in `FiniteRing.element_blocks`; a fixed size keeps the
# memory of an enumeration independent of its budget
_ELEMENT_BLOCK = 4096

# largest dimension `truncated_poly_ring` builds: its table has n^3 entries
MAX_POLY_DIM = 128

# least dimension at which `mul_matrix` and the ring products sum over the
# nonzero structure constants; below it the dense contractions are faster
_SPARSE_DIM = 12
# products gathered at once by the sparse contractions, in entries
_GATHER_CELLS = 1 << 16
# `mul_outer` joins only while its terms number at most 1/_JOIN_BOUND of the
# n^2 entries per row of the dense left multiplication matrices, so the
# join's few index arrays hold about what the dense contraction holds
_JOIN_BOUND = 4
# most terms the associativity check joins from dimension _SPARSE_DIM on;
# past it the check samples triples
_ASSOC_TERMS = 1 << 18


def smith_form(h: np.ndarray, p: int, k: int, ncols: int):
    """Diagonalize a relation matrix over Z/p^k by row and column operations.

    Returns (exps, w, winv) where exps[c] is the valuation of the diagonal
    relation at new coordinate c (k when there is no relation), and w is the
    ambient coordinate change: rowspan(h) @ w = span{p^exps[c] * e_c}.
    `h` is the Howell basis of the relation span, taken as given (module
    docstring); a basis whose pivots are all 1 gets the loop's output in
    closed form.
    """
    r, m = h.shape[0], p**k
    cols = (h != 0).argmax(axis=1) if r else np.zeros(0, dtype=np.int64)
    if (h[np.arange(r), cols] != 1).any():
        return _smith_loop(h, p, k, ncols)
    order = list(range(ncols))  # the loop's column swaps, replayed
    for t, c in enumerate(cols.tolist()):
        order[t], order[c] = order[c], order[t]
    free, rest = np.array(order[r:], dtype=np.int64), np.arange(r, ncols)
    exps = np.zeros(ncols, dtype=np.int64)
    exps[r:] = k
    w = np.zeros((ncols, ncols), dtype=np.int64)
    w[cols, np.arange(r)] = 1
    w[free, rest] = 1
    w[np.ix_(cols, rest)] = -h[:, free] % m
    winv = np.zeros((ncols, ncols), dtype=np.int64)
    winv[:r] = h
    winv[rest, free] = 1
    return exps, w, winv


def _smith_loop(rows, p: int, k: int, ncols: int):
    """`smith_form` by pivoting on a least-valuation entry, for any rows."""
    m = p**k
    a = np.asarray(rows, dtype=np.int64).reshape(-1 if ncols else 0, ncols) % m
    nr = a.shape[0]
    w = np.eye(ncols, dtype=np.int64)
    winv = np.eye(ncols, dtype=np.int64)
    exps = np.full(ncols, k, dtype=np.int64)
    t = 0
    limit = min(nr, ncols)
    while t < limit:
        sub = a[t:, t:]
        if not sub.any():
            break
        # minimal valuation entry in the remaining block
        best = None
        for i in range(sub.shape[0]):
            for j in range(sub.shape[1]):
                x = int(sub[i, j])
                if x:
                    v = linalg._val(x, p, k)
                    if best is None or v < best[0]:
                        best = (v, i + t, j + t)
                        if v == 0:
                            break
            if best and best[0] == 0:
                break
        v, bi, bj = best
        if bi != t:
            a[[t, bi]] = a[[bi, t]]
        if bj != t:
            a[:, [t, bj]] = a[:, [bj, t]]
            w[:, [t, bj]] = w[:, [bj, t]]
            winv[[t, bj]] = winv[[bj, t]]
        piv = p**v
        unit = int(a[t, t]) // piv
        if unit != 1:
            a[t] = (a[t] * pow(unit, -1, m)) % m
        col = a[:, t].copy()
        col[t] = 0
        if col.any():
            mult = col // piv
            a -= mult[:, None] * a[t][None, :]
            a %= m
        row = a[t].copy()
        row[t] = 0
        if row.any():
            mult = row // piv
            for j in np.nonzero(mult)[0]:
                q = int(mult[j])
                a[:, j] = (a[:, j] - q * a[:, t]) % m
                w[:, j] = (w[:, j] - q * w[:, t]) % m
                winv[t] = (winv[t] + q * winv[j]) % m
        exps[t] = v
        t += 1
    return exps, w % m, winv % m


class _SparseTable(NamedTuple):
    """The nonzero structure constants t[i, j, l] of a ring, in two orders.
    In i, j and val they are sorted by (l, j, i): a run of one output cell
    j*n + l of `mul_matrix` is a run of one output coordinate l of a
    product, cut finer.  In fj, fl and fval they are sorted by (i, j, l),
    the order of `table.nonzero()`: count[i] constants of first index i,
    then those of i + 1, as `_join` reads them."""

    i: np.ndarray
    j: np.ndarray
    val: np.ndarray  # t[i, j, l]
    cells: np.ndarray  # j*n + l of each cell run
    cell_starts: np.ndarray
    l: np.ndarray  # l of each coordinate run
    l_starts: np.ndarray
    fj: np.ndarray
    fl: np.ndarray
    fval: np.ndarray
    count: np.ndarray  # constants of each first index


@dataclass(eq=False)
class FiniteRing:
    """Commutative algebra over Z/p^k given by basis and structure constants."""

    p: int
    k: int
    table: np.ndarray
    one: np.ndarray
    name: str = "R"

    def __post_init__(self):
        linalg.check_modulus(self.p, self.k)
        self.table = np.asarray(self.table, dtype=np.int64) % self.char
        self.one = np.asarray(self.one, dtype=np.int64) % self.char
        n = self.n
        if self.table.shape != (n, n, n):
            raise InputError(f"structure constants must be ({n},{n},{n})")
        if n * n * (self.char - 1) ** 3 >= 2**63:  # a product sums n^2 terms of three residues
            raise InputError(f"dimension {n} over Z/{self.p}^{self.k} is past exact int64 arithmetic")
        self._residue_map = None  # rho of a local ring, once known (module docstring)

    # ---- basic data -------------------------------------------------

    @property
    def char(self) -> int:
        return self.p**self.k

    @property
    def n(self) -> int:
        return self.one.shape[0]

    @property
    def size(self) -> int:
        return self.char**self.n

    @property
    def is_zero(self) -> bool:
        return self.n == 0

    def __repr__(self):
        return f"<{self.name}: dim {self.n} over Z/{self.p}^{self.k}>"

    # ---- element arithmetic ----------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.int64)

    def from_int(self, c: int) -> np.ndarray:
        # reduce as a Python int first, so a large c cannot overflow int64
        return ((int(c) % self.char) * self.one) % self.char

    def add(self, x, y) -> np.ndarray:
        return (x + y) % self.char

    def sub(self, x, y) -> np.ndarray:
        return (x - y) % self.char

    def smul(self, c: int, x) -> np.ndarray:
        return (int(c) * x) % self.char

    def mul(self, x, y) -> np.ndarray:
        """x * y; for stacks, xs[s] * ys[s], and one element broadcasts against a stack."""
        return np.einsum("...i,...j,ijl->...l", x, y, self.table) % self.char

    def mul_outer(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """All products xs[a] * ys[b], shape (len(xs), len(ys), n).

        From dimension _SPARSE_DIM on, and while the join stays within
        _JOIN_BOUND, product (a, b, l) sums x[a, i] t[i, j, l] ys[b, j] over
        the nonzero x[a, i] joined with the constants of first index i
        (module docstring).
        """
        n, m = self.n, self.char
        if n >= _SPARSE_DIM:
            xs, ys, sp = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64), self._sparse
            a, i = xs.nonzero()
            na, nb = xs.shape[0], ys.shape[0]
            if _JOIN_BOUND * int(sp.count[i].sum()) <= na * n * n:
                u, v = _join(i, sp.count)
                a, i = a[u], i[u]
                out = np.zeros((na * n, nb), dtype=np.int64)  # row a*n + l: coordinate l of xs[a] * ys
                _add_products(out, a * n + sp.fl[v], sp.fj[v], xs[a, i] * sp.fval[v], ys.T, m)
                return out.reshape(na, n, nb).transpose(0, 2, 1)
        return np.matmul(ys, self.mul_matrix(xs)) % m

    def pow_el(self, x, e: int) -> np.ndarray:
        r = self.one.copy()
        b = x.copy()
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def mul_matrix(self, x) -> np.ndarray:
        """Matrix M with y @ M = x*y; a stack of them for a stack of elements.

        Entry (j, l) of M is the sum over i of x_i t[i, j, l].  From
        dimension _SPARSE_DIM on, each entry sums the nonzero constants of
        its cell only (`_sparse`), over blocks of rows that keep the
        gathered products near _GATHER_CELLS entries.
        """
        n = self.n
        x = np.asarray(x, dtype=np.int64)
        shape = x.shape[:-1] + (n, n)
        if n < _SPARSE_DIM:
            return (x @ self.table.reshape(n, n * n)).reshape(shape) % self.char
        sp = self._sparse
        xs = x.reshape(-1, n)
        out = np.zeros((xs.shape[0], n * n), dtype=np.int64)
        step = max(1, _GATHER_CELLS // max(sp.i.size, 1))
        for s in range(0, xs.shape[0], step):
            prods = xs[s : s + step, sp.i]
            prods *= sp.val
            # a cell sums at most n products of two residues: exact in int64
            sums = np.add.reduceat(prods, sp.cell_starts, axis=1)
            sums %= self.char
            out[s : s + step, sp.cells] = sums
        return out.reshape(shape)

    @cached_property
    def _sparse(self) -> _SparseTable:
        """The nonzero structure constants, read once from the table."""
        n = self.n
        l, j, i = self.table.transpose(2, 1, 0).nonzero()  # sorted by (l, j, i)
        cell = j * n + l
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        l_starts = np.flatnonzero(np.diff(l, prepend=-1))
        fi, fj, fl = self.table.nonzero()  # sorted by (i, j, l)
        return _SparseTable(i, j, self.table[i, j, l], cell[starts], starts, l[l_starts], l_starts,
                            fj, fl, self.table[fi, fj, fl], np.bincount(fi, minlength=n))

    def orbit(self, rows, g: int = 1, by=None) -> np.ndarray:
        """Rows v * x for each row v of R^g (g blocks of n coordinates) and
        each x in `by`, x-major.  With `by` the basis (the default) they span
        the submodule the rows generate; with `by` the basis of an ideal I
        they span I times that submodule."""
        n = self.n
        rows = np.asarray(rows, dtype=np.int64)
        nrows = math.prod(rows.shape[:-1])  # not -1 in the reshapes: n may be 0
        if by is None:
            left = self.mul_matrix(rows.reshape(nrows, g, n))  # left[r, g, x] = v * e_x
        else:
            by = np.asarray(by, dtype=np.int64)
            left = self.mul_outer(rows.reshape(nrows * g, n), by).reshape(nrows, g, by.shape[0], n)
        return left.transpose(2, 0, 1, 3).reshape(left.shape[2] * nrows, g * n)

    def is_unit(self, x) -> bool:
        if self.n == 0:
            return True  # zero ring: 0 = 1 is invertible
        h = linalg.howell_form(self.mul_matrix(x), self.p, self.k, ncols=self.n)
        return linalg.span_contains(h, self.one, self.p, self.k)

    def inv(self, x) -> np.ndarray:
        y, ok = linalg.FactoredSpan.factor(self.mul_matrix(x), self.p, self.k).solve(self.one)
        if not ok:
            raise InputError("element is not a unit")
        return y

    def element_blocks(self, limit: int | None = 2_000_000):
        """Every element, as stacks of at most _ELEMENT_BLOCK rows in
        `itertools.product` order, which is sorted order."""
        if limit is not None and self.size > limit:
            raise BudgetExceeded(f"ring has {self.size} elements, limit {limit}")
        # element number i has the base-char digits of i as its coordinates
        place = self.char ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        for start in range(0, self.size, _ELEMENT_BLOCK):
            idx = np.arange(start, min(start + _ELEMENT_BLOCK, self.size), dtype=np.int64)
            yield (idx[:, None] // place) % self.char

    # ---- verification ----------------------------------------------

    def check_ring(self) -> None:
        n = self.n
        if n == 0:
            return
        t = self.table
        eye = np.eye(n, dtype=np.int64)
        bad = np.flatnonzero((self.mul_matrix(self.one) != eye).any(axis=1))  # row i is one * e_i
        if bad.size:
            raise InvariantViolation(f"one fails on basis {bad[0]}")
        if not np.array_equal(t, t.transpose(1, 0, 2)):
            raise InvariantViolation("structure constants are not commutative")
        self._check_associativity()

    def _check_associativity(self) -> None:
        """(e_i e_j) e_l = e_i (e_j e_l) on every basis triple: densely below
        _SPARSE_DIM, else over the nonzero constants (module docstring); past
        _ASSOC_TERMS joined terms, (ab)c = a(bc) on 200 triples drawn with seed 0."""
        t, m, n = self.table, self.char, self.n
        if n < _SPARSE_DIM:
            left = np.einsum("ijx,xlm->ijlm", t, t) % m
            right = np.einsum("jlx,ixm->ijlm", t, t) % m
            if not np.array_equal(left, right):
                raise InvariantViolation("associativity fails")
            return
        sp = self._sparse
        count_i, j, l, val = sp.count, sp.fj, sp.fl, sp.fval  # sorted by i
        i = np.repeat(np.arange(n), count_i)
        count_j = np.bincount(j, minlength=n)
        if count_i[l].sum() + count_j[l].sum() <= _ASSOC_TERMS:
            # (e_i e_j) e_l: t[i, j, x] t[x, l, m], the second factor found by its first index
            a, b = _join(l, count_i)
            left = _summed(((i[a] * n + j[a]) * n + j[b]) * n + l[b], val[a] * val[b], m)
            # e_i (e_j e_l): t[j, l, x] t[i, x, m], the second factor found by its second index
            a, b = _join(l, count_j)
            b = np.argsort(j, kind="stable")[b]
            right = _summed(((i[b] * n + i[a]) * n + j[a]) * n + l[b], val[a] * val[b], m)
            if not all(map(np.array_equal, left, right)):
                raise InvariantViolation("associativity fails")
            return
        a, b, c = np.random.default_rng(0).integers(0, m, size=(3, 200, n))

        def mul(xs, ys):  # x*y summed over the nonzero constants only
            out = np.zeros_like(xs)
            out[:, sp.l] = np.add.reduceat(xs[:, sp.i] * ys[:, sp.j] * sp.val, sp.l_starts, axis=1) % m
            return out

        if not np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c))):
            raise InvariantViolation("associativity fails on sample")

    # ---- local structure -------------------------------------------

    @cached_property
    def _local_data(self) -> dict:
        """"local" and "residue_log" off the residue map: a nonzero ring is
        local exactly when it carries one (module docstring)."""
        if self.n == 0:
            return {"radical": np.zeros((0, 0), dtype=np.int64), "local": False, "residue_log": 0}
        if self._residue_map is None:
            return {"local": False, "residue_log": 0}
        return {"local": True, "residue_log": self._residue_map.shape[1]}

    @property
    def is_local(self) -> bool:
        return self._local_data["local"]

    def radical_rows(self) -> np.ndarray:
        data = self._local_data
        if "radical" not in data:  # m = ker rho, formed on the first read
            if not data["local"]:
                raise InputError("ring is not local")
            data["radical"] = linalg.kernel_mod(self._residue_map, self.p, self.k, 1)
        return data["radical"]

    def radical_ideal(self) -> "Ideal":
        # the rows are the Howell basis of m = ker rho, an ideal
        return Ideal.from_basis(self, self.radical_rows())

    def maximal_ideal(self) -> "Ideal":
        if not self.is_local:
            raise InputError("ring is not local")
        return self.radical_ideal()

    @cached_property
    def maximal_generators(self) -> np.ndarray:
        """Rows that generate the maximal ideal m as an ideal: the rows of
        the Howell basis of m whose pivot, column and entry p^v, is not a
        pivot of the Howell basis of m^2 (module docstring).  An array, so
        the ring holds no ideal of its own."""
        m = self.maximal_ideal()
        return m.basis[~np.isin(_pivot_keys(m.basis, self.char), _pivot_keys(self._maximal_square, self.char))]

    @cached_property
    def _maximal_square(self) -> np.ndarray:
        """Howell basis of m^2, formed once per ring for `maximal_generators`
        and `embedding_dimension`; an array, so the ring holds no ideal."""
        m = self.maximal_ideal()
        return m.mul_ideal(m).basis

    @property
    def residue_log_size(self) -> int:
        """log_p of the residue field size (local rings only)."""
        if not self.is_local:
            raise InputError("ring is not local")
        return self._local_data["residue_log"]

    def residue_field(self):
        """(field, projection) for a local ring."""
        if not self.is_local:
            raise InputError("ring is not local")
        return quotient_ring(self, self.maximal_ideal())


def _pivot_keys(h: np.ndarray, m: int) -> np.ndarray:
    """column * m + entry of the pivot of each row of a Howell basis over Z/m."""
    cols = (h != 0).argmax(axis=1)
    return cols * m + h[np.arange(h.shape[0]), cols]


def _join(x: np.ndarray, count: np.ndarray):
    """(a, b): every pair of an entry a and a constant b in the run of
    x[a], where the runs hold count[0], count[1], ... constants in turn."""
    start = np.cumsum(count) - count
    reps = count[x]
    a = np.repeat(np.arange(x.size), reps)
    b = np.arange(a.size) - np.repeat(np.cumsum(reps) - reps - start[x], reps)
    return a, b


def _add_products(out: np.ndarray, keys, cols, coefs, dense: np.ndarray, m: int) -> None:
    """out[key] = out[key] + the sum of coef * dense[col] over the terms
    (key, col, coef) of that key, mod m, in blocks of about _GATHER_CELLS
    gathered entries; rows of `out` that no key names are left as they are.
    The caller bounds the terms of a key (module docstring)."""
    order = np.argsort(keys)
    keys, cols, coefs = keys[order], cols[order], coefs[order]
    step = max(1, _GATHER_CELLS // max(dense.shape[1], 1))
    for s in range(0, keys.size, step):
        k = keys[s : s + step]
        starts = np.flatnonzero(np.diff(k, prepend=-1))
        prods = dense[cols[s : s + step]]
        prods *= coefs[s : s + step, None]
        rows = k[starts]
        out[rows] = (out[rows] + np.add.reduceat(prods, starts, axis=0)) % m


def _apply_sparse(x: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """x @ w mod m; from _SPARSE_DIM rows of w on, summed over the nonzero
    entries of w only.  The Smith matrices of the tower fibre products
    (n = 32-48) have n + 1 to n + 3 nonzero entries; over the 23 of a
    seed-1 tower-corpus pass this takes 0.021 s where x @ w takes 0.039 s."""
    if w.shape[0] < _SPARSE_DIM:
        return (x @ w) % m
    r, c = w.nonzero()
    out = np.zeros((w.shape[1], x.shape[0]), dtype=np.int64)  # out[c] = column c of x @ w
    _add_products(out, c, r, w[r, c], x.T, m)
    return out.T


def _summed(keys: np.ndarray, terms: np.ndarray, m: int):
    """(keys, sums): the terms summed per key mod m, sorted by key, zero sums dropped."""
    order = np.argsort(keys)
    keys, terms = keys[order], terms[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(terms, starts) % m
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


class Ideal:
    """Ideal of a FiniteRing, stored as the Howell basis of its additive span.

    The ideal generated by G is R*G, the additive span of the products
    e_j * g of each basis element with each generator, so one orbit of the
    Howell basis of G closes it: no second pass can add a row.  An ideal
    whose Howell basis is already at hand is built by `from_basis`.
    """

    def __init__(self, ring: FiniteRing, gens):
        self.ring = ring
        rows = np.asarray(gens, dtype=np.int64).reshape(-1 if ring.n else 0, ring.n) % ring.char
        h = linalg.howell_form(rows, ring.p, ring.k, ncols=ring.n)
        self.basis = linalg.howell_form(ring.orbit(h), ring.p, ring.k, ncols=ring.n)

    @classmethod
    def from_basis(cls, ring: FiniteRing, basis: np.ndarray) -> "Ideal":
        """The ideal whose Howell basis is `basis`, an (r, n) array, taken
        as given: its span must be an ideal (module docstring)."""
        ideal = cls.__new__(cls)
        ideal.ring, ideal.basis = ring, basis
        return ideal

    # ---- predicates -------------------------------------------------

    @cached_property
    def span(self) -> linalg.FactoredSpan:
        return linalg.FactoredSpan(self.basis, self.ring.p, self.ring.k)

    def contains(self, x) -> bool:
        return bool(self.span.contains(x))

    def contains_ideal(self, other: "Ideal") -> bool:
        return bool(self.span.contains(other.basis).all())

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring is other.ring
            and linalg.span_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((id(self.ring), self.basis.tobytes()))

    def is_zero(self) -> bool:
        return self.basis.shape[0] == 0

    def is_unit_ideal(self) -> bool:
        return self.contains(self.ring.one)

    def log_size(self) -> int:
        return linalg.span_log_size(self.basis, self.ring.p, self.ring.k)

    # ---- arithmetic -------------------------------------------------

    def add_ideal(self, other: "Ideal") -> "Ideal":
        r = self.ring
        return Ideal.from_basis(r, linalg.howell_form(np.vstack([self.basis, other.basis]), r.p, r.k, ncols=r.n))

    def mul_ideal(self, other: "Ideal") -> "Ideal":
        r = self.ring
        if self.is_zero() or other.is_zero():
            return Ideal.from_basis(r, np.zeros((0, r.n), dtype=np.int64))
        prods = r.mul_outer(self.basis, other.basis).reshape(-1, r.n)
        return Ideal.from_basis(r, linalg.howell_form(prods, r.p, r.k, ncols=r.n))

    def annihilator(self) -> "Ideal":
        """{r : r * x = 0 for all x in the ideal}, computed once per ideal."""
        return self._annihilator

    @cached_property
    def _annihilator(self) -> "Ideal":
        """The annihilator, kept on this ideal and never on its ring.

        r * b = r @ mul_matrix(b) vanishes exactly when r is orthogonal to
        every row of mul_matrix(b)^T, so the annihilator is the right kernel
        of the span of those rows over all basis rows b: the Howell form of
        that stack has at most n rows, and its transpose is n columns wide
        whatever the size of the basis (none for the zero ideal, whose
        annihilator is everything).
        """
        r = self.ring
        if r.n == 0:
            return Ideal.from_basis(r, np.zeros((0, 0), dtype=np.int64))
        cols = r.mul_matrix(self.basis).transpose(0, 2, 1).reshape(-1, r.n)
        h = linalg.howell_form(cols, r.p, r.k, ncols=r.n)
        return Ideal.from_basis(r, linalg.kernel(h.T.copy(), r.p, r.k))

    def __repr__(self):
        return f"<Ideal of {self.ring.name}, log size {self.log_size()}>"


@dataclass(eq=False)
class RingMap:
    """Additive map between rings recorded by basis images; checked as a hom."""

    src: FiniteRing
    dst: FiniteRing
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.src.p != self.dst.p:
            raise InputError("ring maps require a common base prime")
        if self.dst.k > self.src.k:
            raise InputError("target modulus must divide source modulus")
        self.matrix = np.asarray(self.matrix, dtype=np.int64) % self.dst.char
        if self.matrix.shape != (self.src.n, self.dst.n):
            raise InputError("matrix shape mismatch")

    def __call__(self, x) -> np.ndarray:
        if self.src.n == 0:
            return self.dst.zero()
        return (np.asarray(x, dtype=np.int64) @ self.matrix) % self.dst.char

    def check_hom(self) -> None:
        s, d = self.src, self.dst
        if d.n == 0:
            return
        if not np.array_equal(self(s.one), d.one):
            raise InvariantViolation("map does not preserve 1")
        if s.n == 0:
            return
        if not np.array_equal(self._image_products(), d.mul_outer(self.matrix, self.matrix)):
            raise InvariantViolation("map is not multiplicative")

    def _image_products(self) -> np.ndarray:
        """f(e_i e_j) for every basis pair, shape (n, n, dst.n); from
        dimension _SPARSE_DIM on, sum_x t[i, j, x] f(e_x) over the nonzero
        constants of the source."""
        s, mat, m = self.src, self.matrix, self.dst.char
        n = s.n
        if n >= _SPARSE_DIM:
            sp = s._sparse
            out = np.zeros((n * n, mat.shape[1]), dtype=np.int64)
            _add_products(out, np.repeat(np.arange(n) * n, sp.count) + sp.fj, sp.fl, sp.fval, mat, m)
            return out.reshape(n, n, -1)
        return np.einsum("ijx,xl->ijl", s.table, mat) % m

    def kernel_ideal(self) -> Ideal:
        return Ideal.from_basis(self.src, linalg.kernel_mod(self.matrix, self.src.p, self.src.k, self.dst.k))

    def is_injective(self) -> bool:
        return self.kernel_ideal().is_zero()

    def is_surjective(self) -> bool:
        if self.dst.n == 0:
            return True
        h = linalg.howell_form(self.matrix, self.dst.p, self.dst.k, ncols=self.dst.n)
        return linalg.span_log_size(h, self.dst.p, self.dst.k) == self.dst.k * self.dst.n

    def then(self, other: "RingMap") -> "RingMap":
        if other.src is not self.dst:
            raise InputError("composition mismatch")
        mat = (self.matrix @ other.matrix) % other.dst.char
        return RingMap(self.src, other.dst, mat, name=f"{other.name}.{self.name}")

    @staticmethod
    def identity(r: FiniteRing) -> "RingMap":
        return RingMap(r, r, np.eye(r.n, dtype=np.int64), name="id")


@dataclass(eq=False)
class QuotientRing:
    """R/I with its projection and a section of it, c -> c @ lift_matrix.

    `quotient_algebra` returns the same bundle for algebras.
    """

    ring: FiniteRing
    proj: RingMap
    lift_matrix: np.ndarray


def _smith_coordinates(p, k, n, rel_h):
    """(k', proj, lift) of (Z/p^k)^n modulo the span of the Howell basis `rel_h`.

    Coordinates come from a Smith basis of the relation span: the quotient
    is free over Z/p^k' on the Smith coordinates with a nonzero exponent,
    `proj` (n, n') keeps those coordinates and `lift` (n', n) puts them back.
    """
    exps, w, winv = smith_form(rel_h, p, k, n)
    nonzero = sorted({int(e) for e in exps if e > 0})
    if len(nonzero) > 1:
        raise NonFreeQuotientError(
            f"quotient has mixed additive torsion, exponents {sorted(set(map(int, exps)))}"
        )
    new_k = nonzero[0] if nonzero else 1
    keep = exps > 0
    return new_k, w[:, keep] % p**new_k, winv[keep] % p**k


def _quotient_structure(p, k, new_k, table, one, proj, lift):
    """(table', one') of R/I in the coordinates of the projection `proj`
    (n, n') and any section `lift` (n', n) of it."""
    n = one.shape[0]
    # lift_a * lift_b in two contractions: left multiplication by lift_a, then lift_b
    left = (lift @ table.reshape(n, n * n)).reshape(lift.shape[0], n, n) % p**k
    prods = (lift @ left) % p**k
    return (prods @ proj) % p**new_k, (one @ proj) % p**new_k


def _projection(src: FiniteRing, dst: FiniteRing, proj, lift) -> RingMap:
    """The map src -> dst by `proj`, checked as a unital homomorphism, and
    `lift` checked as a section of it (lift @ proj = 1), so it is onto."""
    f = RingMap(src, dst, proj, name="proj")
    f.check_hom()
    if not np.array_equal((lift @ proj) % dst.char, np.eye(dst.n, dtype=np.int64)):
        raise InvariantViolation("quotient lift/proj mismatch")
    return f


def quotient_ring(r: FiniteRing, ideal: Ideal, name: str | None = None) -> QuotientRing:
    """R/I with projection; raises NonFreeQuotientError on mixed torsion.

    R/I is not checked as a ring: its projection from the ring R is a
    checked unital homomorphism onto it (`_projection`), so R/I inherits
    commutativity, associativity and the unit.
    """
    if ideal.ring is not r:
        raise InputError("ideal belongs to a different ring")
    new_k, proj, lift = _smith_coordinates(r.p, r.k, r.n, ideal.basis)
    table, one = _quotient_structure(r.p, r.k, new_k, r.table, r.one, proj, lift)
    ring = FiniteRing(r.p, new_k, table, one, name=name or f"{r.name}/I")
    if r._residue_map is not None and ring.n:  # I lies in m (module docstring)
        ring._residue_map = (lift @ r._residue_map) % r.p
    return QuotientRing(ring, _projection(r, ring, proj, lift), lift)


def fiber_product(f: RingMap, g: RingMap, name: str | None = None):
    """A x_C B for surjections f: A -> C, g: B -> C.

    Returns (ring, proj_a, proj_b).  The underlying module is the kernel of
    (a, b) -> f(a) - g(b); it must be free over Z/p^k to be representable.

    Neither the ring nor its projections are checked again.  The closure
    check compares the products of the basis rows, formed in A and in B,
    with table @ basis, and the unit check finds (1, 1) in their span: so
    e_i -> basis_i, injective as its rows are rows of the invertible winv,
    is a unital multiplicative map into A x B, and H is a subring of it
    for rings A and B, with both projections homomorphisms.
    """
    a_ring, b_ring, c_ring = f.src, g.src, f.dst
    if g.dst is not c_ring:
        raise InputError("fiber product maps must share a target")
    if a_ring.p != b_ring.p or a_ring.k != b_ring.k:
        raise InputError("fiber product factors must share Z/p^k")
    if not f.is_surjective() or not g.is_surjective():
        raise InputError("fiber product requires surjective maps")
    p, k = a_ring.p, a_ring.k
    na, nb = a_ring.n, b_ring.n
    big = np.vstack([f.matrix, (-g.matrix) % c_ring.char])
    sub_rows = linalg.kernel_mod(big, p, k, c_ring.k)
    exps, w, winv = smith_form(sub_rows, p, k, na + nb)
    # submodule structure: invariant factors p^(k - exps[c]) for exps[c] < k
    if any(0 < int(e) < k for e in exps):
        raise NonFreeQuotientError("fiber product module is not free over Z/p^k")
    sel = exps == 0
    basis = winv[sel] % (p**k)
    nn, ba, bb = basis.shape[0], basis[:, :na], basis[:, na:]
    # basis = winv[sel] and w = winv^-1, so (x @ w)[sel] are the coordinates
    # of x in the basis, and x is in its span iff (x @ w)[~sel] vanishes
    prods = np.concatenate([a_ring.mul_outer(ba, ba), b_ring.mul_outer(bb, bb)], axis=2)
    coords = _apply_sparse(prods.reshape(nn * nn, na + nb), w, p**k)
    if coords[:, ~sel].any():
        raise InvariantViolation("fiber product basis is not multiplicatively closed")
    table = coords[:, sel].reshape(nn, nn, nn)
    one_c = (np.concatenate([a_ring.one, b_ring.one]) @ w) % (p**k)
    if one_c[~sel].any():
        raise InvariantViolation("fiber product does not contain 1")
    one = one_c[sel]
    ring = FiniteRing(p, k, table, one, name=name or f"{a_ring.name}x{b_ring.name}")
    # P is local when its nonzero factors are, and C != 0 or one factor is zero (module docstring)
    local = [(pr, r._residue_map) for r, pr in ((a_ring, ba), (b_ring, bb)) if r.n]
    if local and all(rho is not None for _, rho in local) and (c_ring.n or len(local) == 1):
        ring._residue_map = (local[0][0] @ local[0][1]) % p  # rho_P = pr . rho of a nonzero factor
    return ring, RingMap(ring, a_ring, ba, name="pr1"), RingMap(ring, b_ring, bb, name="pr2")


# ---- derived ring invariants ---------------------------------------


def embedding_dimension(r: FiniteRing) -> int:
    """dim of m/m^2 over the residue field, for local r."""
    dlog = r.maximal_ideal().log_size() - linalg.span_log_size(r._maximal_square, r.p, r.k)
    res = r.residue_log_size
    if dlog % res:
        raise InvariantViolation("m/m^2 size is not a residue field power")
    return dlog // res


def gorenstein_test(r: FiniteRing) -> bool:
    """Socle criterion for an Artinian local ring: dim soc = 1."""
    if r.is_zero:
        raise InputError("zero ring has no Gorenstein type")
    m = r.maximal_ideal()
    if m.is_zero():
        return True  # field
    soc = m.annihilator()
    dlog = soc.log_size()
    res = r.residue_log_size
    if dlog % res:
        raise InvariantViolation("socle size is not a residue field power")
    return dlog // res == 1


# ---- constructors ---------------------------------------------------


def zmod_ring(p: int, k: int, name: str | None = None) -> FiniteRing:
    ring = FiniteRing(p, k, np.ones((1, 1, 1), dtype=np.int64), np.array([1]), name=name or f"Z{p}^{k}")
    ring._residue_map = np.ones((1, 1), dtype=np.int64)  # Z/p^k -> F_p (module docstring)
    return ring


def _find_irreducible(p: int, e: int) -> list[int]:
    """Monic irreducible of degree e over F_p, lexicographically first.

    Degree <= 3 is enough here, where having no root is equivalent to
    irreducibility (except for e = 1, handled trivially).
    """
    if e == 1:
        return [0, 1]
    if e > 3:
        raise InputError("residue extensions of degree > 3 are not supported")
    for tail in itertools.product(range(p), repeat=e):
        coeffs = list(tail) + [1]
        if coeffs[0] == 0:
            continue
        has_root = any(
            sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0 for x in range(p)
        )
        if not has_root:
            return coeffs
    raise InvariantViolation("no irreducible polynomial found")


def field_ring(p: int, e: int = 1, name: str | None = None) -> FiniteRing:
    """F_{p^e} with power basis of a root of the first irreducible polynomial."""
    if e < 1:
        raise InputError(f"residue degree must be a positive integer, got {e}")
    linalg.check_modulus(p, 1)
    if e == 1:
        return zmod_ring(p, 1, name=name or f"F{p}")
    poly = _find_irreducible(p, e)
    # reduction of x^a mod the polynomial, coefficients mod p
    reds = []
    cur = [1] + [0] * (e - 1)
    for a in range(2 * e - 1):
        reds.append(list(cur))
        cur = [0] + cur
        if len(cur) > e:
            lead = cur.pop()
            cur = [(c - lead * poly[i]) % p for i, c in enumerate(cur)]
    table = np.zeros((e, e, e), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            table[i, j] = np.array(reds[i + j]) % p
    one = np.zeros(e, dtype=np.int64)
    one[0] = 1
    ring = FiniteRing(p, 1, table, one, name=name or f"F{p**e}")
    ring._residue_map = np.eye(e, dtype=np.int64)  # a field is its own residue field
    return ring


def truncated_poly_ring(base: FiniteRing, trunc: int, name: str | None = None) -> FiniteRing:
    """base[t]/(t^trunc) with basis t^i * (base basis)."""
    if trunc < 1:
        raise InputError(f"truncation order must be a positive integer, got {trunc}")
    e = base.n
    n = trunc * e
    if n > MAX_POLY_DIM:  # refused before the n^3 table is allocated
        raise InputError(f"truncated ring of dimension {n} exceeds the supported maximum {MAX_POLY_DIM}")
    table = np.zeros((n, n, n), dtype=np.int64)
    for i1 in range(trunc):
        for j1 in range(e):
            for i2 in range(trunc):
                for j2 in range(e):
                    if i1 + i2 >= trunc:
                        continue
                    prod = base.table[j1, j2]
                    blk = (i1 + i2) * e
                    table[i1 * e + j1, i2 * e + j2, blk : blk + e] = prod
    one = np.zeros(n, dtype=np.int64)
    one[:e] = base.one
    ring = FiniteRing(base.p, base.k, table, one, name=name or f"{base.name}[t]/t^{trunc}")
    if base._residue_map is not None:  # the base's rho on the constant block (module docstring)
        ring._residue_map = np.pad(base._residue_map, ((0, n - e), (0, 0)))
    return ring


# ---- truncated discrete valuation model ----------------------------


class DvrModel:
    """k[t]/(t^N) over F_{p^e}: the finite stand-in for a DVR.

    N is kept strictly larger than every length that matters downstream;
    results that touch t^(N-1) carry a truncation caveat.
    """

    def __init__(self, p: int = 5, e: int = 1, trunc: int = 16):
        if trunc < 2:
            raise InputError("truncation order must be >= 2")
        self.p, self.e, self.trunc = p, e, trunc
        self.residue = field_ring(p, e)
        self.ring = truncated_poly_ring(self.residue, trunc, name=f"F{p**e}[t]/t^{trunc}")
        self.ring.check_ring()

    @property
    def q(self) -> int:
        return self.p**self.e

    def t(self, power: int = 1) -> np.ndarray:
        if power < 0:
            raise InputError(f"power of t must be >= 0, got {power}")
        x = np.zeros(self.ring.n, dtype=np.int64)
        if power < self.trunc:
            x[power * self.e] = 1
        return x

    def t_ideal(self, power: int) -> Ideal:
        return Ideal(self.ring, self.t(power).reshape(1, -1))

    def quotient_mod_t(self, power: int) -> QuotientRing:
        return quotient_ring(self.ring, self.t_ideal(power), name=f"L/t^{power}")

    def __repr__(self):
        return f"<DvrModel F{self.q}[t]/t^{self.trunc}>"
