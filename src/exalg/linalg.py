"""Exact linear algebra over Z/p^k.

Everything downstream (ideal arithmetic, quotients, kernels of ring maps,
module lengths) reduces to row-span computations here.  The canonical form
for a row span is the Howell form: unlike the reduced echelon form it is a
complete invariant of the span over a ring with zero divisors, because the
annihilator closure rows are part of the data.

A `FactoredSpan` is a row span factored once: its Howell form H, the
transform U with U @ rows = H (from `howell_with_transform`) and the pivot
of each row of H.  Its `reduce`, `contains` and `solve` answer a batch of
vectors in one pass over the pivots, and its left kernel is computed only
on request.

The engine behind both Howell entry points clears each pivot column with
one update of every other row holding a multiple of the pivot there,
above and below the pivot row together: rows below have valuation at
least the pivot's in that column, so they clear, and rows above keep
their residue mod the pivot.  The update covers only the columns from the
pivot column c on (the column window).  Every row at or below the pivot
row, the appended annihilator rows included, is zero left of c, so the
pivot row is too, and subtracting its multiples changes nothing there;
`FactoredSpan.reduce` windows each pivot's update the same way, since a
Howell row is zero left of its pivot.  With a transform it reduces
[rows | I] with pivots only in the columns of `rows`: the right block is
then U, and its rows past the Howell rows span the left kernel.  A tall
input (more rows than columns) reduced without a transform sheds its zero
rows once, on entry; the Howell form is canonical, so the output is the
same as with every row kept.

`howell_form` (without a transform) first splits off the singleton rows
whose one nonzero entry is a unit.  Such a row at column c puts e_c in the
span, so the span S is the direct sum of span{e_c : c in C}, C the set of
those columns, and the span S' of the other rows with their C entries
cleared (clearing subtracts multiples of the e_c, so S is unchanged).  S'
lies in the coordinates off C, and the engine reduces only its rows,
restricted to those coordinates.  The unit rows merged with the Howell
form H' of S' in pivot order are the Howell form of S:
- echelon: pivot columns are distinct, since H' has none in C;
- reduced: a column c in C holds only the 1 of e_c, and a pivot column of
  H' is zero in every e_c and reduced within H';
- Howell property: an x in S that vanishes left of column j is
  sum a_c e_c + y with a_c = x_c and y in S' equal to x off C, so a_c = 0
  for c < j and y vanishes left of j; y is a combination of the rows of H'
  with pivots at or past j, as H' is a Howell form.
The Howell form is unique for its span (Howell 1986; Storjohann 2000), so
this is the engine's output on all the rows, byte for byte.  A singleton
p^v u with v > 0 is an ordinary row for the engine.  Most rows of the
tower closures are unit singletons; inputs with fewer than _SPLIT_MIN
rows or columns skip the split, whose overhead they would not repay.

A span is put in Howell form once, by the code that forms its rows; a
function that takes a span takes its Howell basis H as given, as
`FactoredSpan(h, p, k)` does.  Reducing H again could only return H: H
spans the span it is the Howell form of, and that form is unique.

Rows are numpy int64 vectors with entries in [0, p^k).  All operations are
exact; no floating point anywhere.
"""

from __future__ import annotations

from functools import cached_property
import math

import numpy as np

from .errors import InputError

__all__ = [
    "FactoredSpan",
    "check_modulus",
    "howell_form",
    "howell_with_transform",
    "kernel",
    "kernel_mod",
    "span_contains",
    "span_equal",
    "span_log_size",
    "pivot_info",
]


def check_modulus(p: int, k: int) -> None:
    """Reject moduli outside the supported range (odd prime power, 2 a unit)."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise InputError(f"base prime must be an odd prime, got {p}")
    if not isinstance(k, int) or k < 1:
        raise InputError(f"exponent must be a positive integer, got {k}")
    # a product of three residues must fit int64 (FiniteRing refines this by
    # dimension); k is bounded first so that p^k is cheap to form, and the
    # size is checked before a trial division that grows with sqrt(p)
    if k >= 64 or (p**k - 1) ** 3 >= 2**63:
        raise InputError(f"modulus {p}^{k} is past exact int64 arithmetic")
    # small trial division is enough at desk scale
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise InputError(f"base prime must be prime, got {p}")
        d += 2


# least row and column count at which `howell_form` splits off the unit
# singleton rows; on smaller inputs the split costs more than it saves
_SPLIT_MIN = 8


def _val(x: int, p: int, k: int) -> int:
    """p-adic valuation of x in Z/p^k; the zero class gets valuation k."""
    if x == 0:
        return k
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _as_matrix(rows, ncols: int | None = None) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        if a.shape[0] == 0:
            # empty row list; a true (r, 0) matrix stays 2-D and is kept
            return np.zeros((0, ncols or 0), dtype=np.int64)
        a = a.reshape(1, -1)
    return a


def _engine(mat: np.ndarray, p: int, k: int, with_transform: bool):
    """(a, u, done): the Howell form of `mat` in the first `done` rows of a;
    with a transform, a and u are the two blocks of [mat | I] reduced with
    pivots only in the columns of mat, so u @ mat = a row by row."""
    m = p**k
    a = _as_matrix(mat) % m
    nr, nc = a.shape
    if with_transform:
        a = np.hstack([a, np.eye(nr, dtype=np.int64)])
    elif nr > nc:
        # a tall input sheds its zero rows once, on entry: they span nothing.
        # [mat | I] keeps every row, and so each kernel relation.
        a = a[a.any(axis=1)]
    done = 0
    for c in range(nc):
        col = a[done:, c]
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        # the first row of least valuation v: nonzero mod p^(v+1)
        v, least = 0, nz
        if k > 1:
            vals = col[nz]
            for v in range(k):
                least = nz[vals % p ** (v + 1) != 0]
                if least.size:
                    break
        j = int(least[0]) + done
        if j != done:
            a[[done, j], c:] = a[[j, done], c:]
        piv = p**v
        unit = int(a[done, c]) // piv
        if unit != 1:
            a[done, c:] = (a[done, c:] * pow(unit, -1, m)) % m
        # one update of every other row with a multiple of the pivot in column c,
        # above and below alike; the column is copied, as the update writes it
        mult = a[:, c] // piv if v else a[:, c].copy()
        mult[done] = 0
        rows = mult.nonzero()[0]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - mult[rows, None] * a[done, c:]) % m
        if v > 0:
            # the annihilator row, appended even when zero: a zero row still
            # moves in the swaps, and so orders the rows that later tie
            a = np.vstack([a, (a[done] * p ** (k - v))[None, :] % m])
        done += 1
    return (a[:, :nc], a[:, nc:], done) if with_transform else (a, None, done)


def howell_form(rows, p: int, k: int, ncols: int | None = None) -> np.ndarray:
    """Canonical basis of the row span of `rows` over Z/p^k.

    Two row sets span the same submodule iff their Howell forms are equal
    elementwise.  Pivot entries are powers of p at strictly increasing
    columns; entries above a pivot p^v are reduced mod p^v.  From
    _SPLIT_MIN rows and columns on, the unit singleton rows are split off
    before the engine runs (module docstring); a tall input sheds its zero
    rows once, on entry, and each pivot clears its column with one row
    update.  None of these changes the output.
    """
    a = _as_matrix(rows, ncols)
    if a.shape[0] == 0:
        return a
    if min(a.shape) >= _SPLIT_MIN:
        a = a % p**k
        single = np.flatnonzero(np.count_nonzero(a, axis=1) == 1)
        cols = (a[single] != 0).argmax(axis=1) if single.size else single
        cols = cols[a[single, cols] % p != 0]
        if cols.size:
            return _with_unit_rows(a, cols, p, k)
    h, _, done = _engine(a, p, k, with_transform=False)
    return h[:done].copy()


def _with_unit_rows(a: np.ndarray, cols: np.ndarray, p: int, k: int) -> np.ndarray:
    """Howell form of the reduced rows `a`, which hold a unit singleton in
    each column of `cols`: the unit rows e_c merged in pivot order with the
    engine's Howell form of the rows on the other columns."""
    unit = np.zeros(a.shape[1], dtype=bool)
    unit[cols] = True
    free = np.flatnonzero(~unit)
    rest = a[:, free]
    h, _, done = _engine(rest[rest.any(axis=1)], p, k, with_transform=False)
    lead = (h[:done] != 0).argmax(axis=1) if done else free[:0]
    pivots = np.concatenate([np.flatnonzero(unit), free[lead]])
    out = np.zeros((pivots.size, a.shape[1]), dtype=np.int64)
    nu = pivots.size - done
    out[np.arange(nu), pivots[:nu]] = 1
    out[nu:, free] = h[:done]
    return out[np.argsort(pivots)]


class FactoredSpan:
    """The row span of a matrix over Z/p^k, factored once for many queries.

    `pivots` lists (row i, column c, entry h[i, c] = p^v) for each nonzero
    row of the Howell form `h`; a span made by `factor` also holds `u` with
    u @ rows = h, which `solve` needs.  `reduce`, `contains` and `solve`
    take one vector or a stack of any leading shape, in one pass over the
    pivots; each vector gets the answer a one-vector call gives.
    """

    def __init__(self, h, p: int, k: int, u=None, kernel_gens=None):
        """Wrap `h`, which must already be in Howell form."""
        self.p, self.k, self.m = p, k, p**k
        self.h = _as_matrix(h)
        self.u = u
        self._kernel_gens = kernel_gens
        self.pivots = []  # (row, column, entry) of the first nonzero of each row
        # Howell pivot columns strictly increase, so one walk finds them all
        item, c = self.h.item, 0
        for i in range(self.h.shape[0]):
            while not (x := item(i, c)):
                c += 1
            self.pivots.append((i, c, x))
            c += 1

    @classmethod
    def factor(cls, rows, p: int, k: int, ncols: int | None = None) -> "FactoredSpan":
        """Howell form of `rows` with its transform, computed once."""
        h, u, kernel_gens = howell_with_transform(rows, p, k, ncols)
        return cls(h, p, k, u, kernel_gens)

    @cached_property
    def kernel(self) -> np.ndarray:
        """Howell basis of {x : x @ rows = 0}; only for a span made by `factor`."""
        gens = self._kernel_gens
        return howell_form(gens, self.p, self.k, ncols=gens.shape[1])

    def reduce(self, vecs):
        """(residual, coeffs) with vecs = coeffs @ h + residual mod p^k.

        The residual is the canonical coset representative of vec + span.
        """
        m = self.m
        v = np.asarray(vecs, dtype=np.int64) % m
        shape = v.shape
        flat = v.reshape(math.prod(shape[:-1]), shape[-1])
        coeffs = np.zeros((flat.shape[0], self.h.shape[0]), dtype=np.int64)
        for i, c, piv in self.pivots:
            q = flat[:, c] // piv
            if q.any():
                flat[:, c:] = (flat[:, c:] - q[:, None] * self.h[i, c:]) % m
                coeffs[:, i] = q
        return flat.reshape(shape), coeffs.reshape(shape[:-1] + (self.h.shape[0],))

    def contains(self, vecs):
        """Whether each vector lies in the span."""
        res, _ = self.reduce(vecs)
        return ~res.any(axis=-1)

    def solve(self, rhs):
        """(x, ok): x @ rows = rhs for each right-hand side where ok holds.

        Where ok is false the right-hand side is outside the span and its x
        means nothing.  Only for a span made by `factor`.
        """
        res, coeffs = self.reduce(rhs)
        return (coeffs @ self.u) % self.m, ~res.any(axis=-1)


def howell_with_transform(rows, p: int, k: int, ncols: int | None = None):
    """Return (H, U, K): H the Howell form, U with U @ rows = H row-block,
    K a spanning set for {x : x @ rows = 0}, not reduced."""
    a = _as_matrix(rows, ncols)
    h, u, done = _engine(a, p, k, with_transform=True)
    # rows of h beyond `done` are zero by construction
    return h[:done].copy(), u[:done].copy(), u[done:]


def kernel(mat, p: int, k: int) -> np.ndarray:
    """Howell basis of the left kernel {x : x @ mat == 0 over Z/p^k}."""
    return FactoredSpan.factor(mat, p, k).kernel


def kernel_mod(mat, p: int, k_src: int, k_dst: int) -> np.ndarray:
    """Left kernel of a map (Z/p^k_src)^r -> (Z/p^k_dst)^c given by `mat`.

    Requires k_dst <= k_src; the congruence x@mat = 0 mod p^k_dst is lifted
    to modulus p^k_src by scaling the matrix.
    """
    if k_dst > k_src:
        raise ValueError("target modulus must divide source modulus")
    a = _as_matrix(mat)
    scaled = (a * p ** (k_src - k_dst)) % (p**k_src)
    return kernel(scaled, p, k_src)


def pivot_info(h: np.ndarray, p: int, k: int) -> dict[int, int]:
    """Map pivot column -> valuation of its pivot, for a Howell-form matrix."""
    return {c: _val(piv, p, k) for _, c, piv in FactoredSpan(h, p, k).pivots}


def span_contains(h: np.ndarray, vec, p: int, k: int) -> bool:
    return bool(FactoredSpan(h, p, k).contains(vec))


def span_equal(h1: np.ndarray, h2: np.ndarray) -> bool:
    return h1.shape == h2.shape and bool(np.array_equal(h1, h2))


def span_log_size(h: np.ndarray, p: int, k: int) -> int:
    """log_p of the number of elements in the row span (h in Howell form)."""
    return sum(k - v for v in pivot_info(h, p, k).values())

