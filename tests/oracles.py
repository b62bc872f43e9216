"""Brute-force oracles and test fixtures that the library does not ship.

The rule: oracles may import `exalg`, and `exalg` never imports them.
What only the tests reach lives here; `test_library_reach.py` checks
that the package imports nothing from the tests and that a command, a
stage table, a script or the benchmark reaches every definition in it.
The comment above each oracle names the fast path it checks; a fixture
only builds test inputs.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from exalg import linalg, ordinary
from exalg.algebras import AssocAlgebra, quotient_algebra, two_sided_ideal_rows
from exalg.errors import BudgetExceeded, InputError, InvariantViolation
from exalg.gma import GmaAlgebra, _raise_first, gma_decompose, reducibility_ideal
from exalg.groups import GroupChar, MarkedGroup, _require_order
from exalg.linalg import howell_form, span_equal
from exalg.modules import maximal_multiples
from exalg.ordinary import (
    OrdinaryContext,
    _j_r_zero,
    _relations,
    _scaled_rows,
    is_ordinary_psrep,
    ordinary_quotient,
)
from exalg.psrep import Pseudorep2, TraceForms, psrep_base_change, split_as_characters, validate_pseudorep
from exalg.rings import DvrModel, FiniteRing, Ideal, RingMap, _smith_loop, quotient_ring, truncated_poly_ring
from exalg.towers import AugmentedAlgebra, _adjoin_x, augmented_algebra


# ---- spans --------------------------------------------------------


# Oracle for the one-step spans: `rings.Ideal`, `algebras.two_sided_ideal_rows`
# and `FinModule.from_presentation` close in one orbit, where this iterates
# to a fixed point.
def howell_closure(rows, p: int, k: int, ncols: int, step) -> np.ndarray:
    """Howell form of the least span that contains `rows` and is closed
    under `step`, which maps a Howell basis to rows the span must contain."""
    h = howell_form(rows, p, k, ncols=ncols)
    while h.shape[0]:
        h2 = howell_form(np.vstack([h, step(h)]), p, k, ncols=ncols)
        if span_equal(h, h2):
            break
        h = h2
    return h


# Oracle for `algebras.matrix_algebra` and `FiniteRing.mul_outer`: the unital
# subalgebra a set of elements generates, by `howell_closure` under products.
def subalgebra_closure(alg: AssocAlgebra, gens, with_one: bool = True) -> np.ndarray:
    """Howell basis of the unital subalgebra spanned by `gens`."""
    rows = [np.asarray(g, dtype=np.int64) % alg.char for g in gens]
    if with_one:
        rows = [alg.one.copy()] + rows
    return howell_closure(
        np.array(rows), alg.p, alg.k, alg.n, lambda h: alg.mul_outer(h, h).reshape(-1, alg.n)
    )


# ---- canonical forms and the associativity check -----------------


# Oracle for `linalg.howell_form`: the engine alone on every row, without
# the unit-singleton split.
def engine_howell_form(rows, p: int, k: int, ncols: int | None = None) -> np.ndarray:
    a = linalg._as_matrix(rows, ncols)
    if a.shape[0] == 0:
        return a
    h, _, done = linalg._engine(a, p, k, with_transform=False)
    return h[:done].copy()


# Oracle for `rings.smith_form`: the pivoting loop, which the closed form of
# a unit-pivot Howell form replaces, on the engine's Howell form of the rows.
def loop_smith_form(rows, p: int, k: int, ncols: int):
    rows = np.asarray(rows, dtype=np.int64).reshape(-1 if ncols else 0, ncols)
    return _smith_loop(engine_howell_form(rows, p, k, ncols), p, k, ncols)


# Oracles for `FiniteRing._check_associativity`: the dense check on every
# basis triple, and (ab)c = a(bc) on the 200 triples drawn with seed 0.
def dense_associativity(r: FiniteRing) -> bool:
    t, m = r.table, r.char
    return np.array_equal(np.einsum("ijx,xlm->ijlm", t, t) % m, np.einsum("jlx,ixm->ijlm", t, t) % m)


def sampled_associativity(r: FiniteRing) -> bool:
    a, b, c = np.random.default_rng(0).integers(0, r.char, size=(3, 200, r.n))
    return np.array_equal(r.mul(r.mul(a, b), c), r.mul(a, r.mul(b, c)))


# ---- ring products over every structure constant ----------------


# Oracles for the contractions that skip zeros: `FiniteRing.mul_outer`,
# `FiniteRing.orbit` with `by`, both sides of `RingMap.check_hom` and the
# fibre coordinates of `fiber_product`, each over the whole dense table.
def dense_mul_matrix(r: FiniteRing, x) -> np.ndarray:
    """y @ M = x * y by the dense contraction over the whole table."""
    n = r.n
    return (x @ r.table.reshape(n, n * n)).reshape(np.shape(x)[:-1] + (n, n)) % r.char


def dense_mul_outer(r: FiniteRing, xs, ys) -> np.ndarray:
    """All products xs[a] * ys[b], shape (len(xs), len(ys), n)."""
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    return np.matmul(ys, dense_mul_matrix(r, xs)) % r.char


def dense_orbit(r: FiniteRing, rows, g: int = 1, by=None) -> np.ndarray:
    """Rows v * x, x-major, with the right multiplications read off the table."""
    n = r.n
    right = r.table.transpose(1, 0, 2)  # y @ right[x] = y * e_x
    if by is not None:
        right = (by @ right.reshape(n, n * n)).reshape(by.shape[0], n, n) % r.char
    blocks = rows.reshape(rows.shape[0], g, n)
    return (np.einsum("rgi,xil->xrgl", blocks, right) % r.char).reshape(right.shape[0] * rows.shape[0], g * n)


def dense_hom_sides(f: RingMap) -> tuple[np.ndarray, np.ndarray]:
    """(f(e_i e_j), f(e_i) f(e_j)) for every basis pair of the source."""
    lhs = np.einsum("ijx,xl->ijl", f.src.table, f.matrix) % f.dst.char
    return lhs, dense_mul_outer(f.dst, f.matrix, f.matrix)


def dense_fiber_coordinates(x, w, m: int) -> np.ndarray:
    """x @ w mod m over every entry of w."""
    return (np.asarray(x, dtype=np.int64) @ w) % m


# ---- local structure -----------------------------------------------


def _rref_mod_p(a, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p of the rows of `a`, zero rows
    dropped, by Gaussian elimination alone: the Howell form over a field."""
    a = np.array(a, dtype=np.int64) % p
    done = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[done:, c])
        if nz.size == 0:
            continue
        j = done + int(nz[0])
        a[[done, j]] = a[[j, done]]
        a[done] = a[done] * pow(int(a[done, c]), -1, p) % p
        col = a[:, c].copy()
        col[done] = 0
        a = (a - col[:, None] * a[done]) % p
        done += 1
        if done == a.shape[0]:
            break
    return a[:done]


def _left_kernel_mod_p(a, p: int) -> np.ndarray:
    """RREF basis of {x : x @ a = 0 mod p}, read off the RREF of a^T."""
    a = np.asarray(a, dtype=np.int64)
    h = _rref_mod_p(a.T, p)
    pivots = [int(np.flatnonzero(row)[0]) for row in h]
    free = [c for c in range(a.shape[0]) if c not in pivots]
    out = np.zeros((len(free), a.shape[0]), dtype=np.int64)
    for i, c in enumerate(free):
        out[i, c] = 1
        out[i, pivots] = -h[:, c]
    return _rref_mod_p(out, p).reshape(-1, a.shape[0])


# Oracle for the residue maps that `rings.quotient_ring`, `rings.fiber_product`
# and `DvrModel` carry, which `FiniteRing._local_data` reads in place of
# Frobenius: the local structure from scratch, with x^p taken by `pow_el`
# and the F_p linear algebra by elimination, apart from `linalg`.
def frobenius_local_data(r: FiniteRing) -> dict:
    """{"radical", "local", "residue_log", "factors"} of a nonzero ring."""
    n, p = r.n, r.p
    step = np.array([r.pow_el(e, p) for e in np.eye(n, dtype=np.int64)]) % p
    frob = np.eye(n, dtype=np.int64)
    for _ in range(n):  # a power past the nilpotency index of the radical mod p
        frob = (frob @ step) % p
    nil = _left_kernel_mod_p(frob, p)
    rad = nil if r.k == 1 else howell_form(np.vstack([nil, p * np.eye(n, dtype=np.int64)]), p, r.k, ncols=n)
    # x + nil is fixed by Frobenius iff x^p - x lies in nil; the fixed
    # points of the reduced ring are F_p to the number of its local factors
    fixed = _left_kernel_mod_p(np.vstack([(step - np.eye(n, dtype=np.int64)) % p, nil]), p)
    factors = fixed.shape[0] - nil.shape[0]
    return {"radical": rad, "local": factors == 1, "residue_log": n - nil.shape[0] if factors == 1 else 0,
            "factors": factors}


# Oracle for `FiniteRing._local_data`'s local test: the local factor count by Frobenius.
def local_factor_count(r: FiniteRing) -> int:
    return frobenius_local_data(r)["factors"] if r.n else 0


# Fixture: every element of a ring, one at a time, in sorted order.
def elements(r: FiniteRing, limit: int | None = 2_000_000):
    for block in r.element_blocks(limit):
        yield from block


# Fixture: the zero ring, a supported input whose quotients and
# Cayley-Hamilton algebra the tests build.
def zero_ring(p: int, k: int = 1) -> FiniteRing:
    return FiniteRing(p, k, np.zeros((0, 0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), name="0")


# Fixture: the least c with rad^c = 0, which bounds the Newton iterations
# the idempotent lifts of `gma` take.
def radical_nilpotency_class(r: FiniteRing) -> int:
    rad = r.radical_ideal()
    cur, c = rad, 1
    while not cur.is_zero():
        cur = cur.mul_ideal(rad)
        c += 1
        if c > r.n * r.k + 2:
            raise InvariantViolation("radical power chain does not terminate")
    return c


# ---- Nakayama picks -----------------------------------------------


# Oracle for `towers._min_module_rows`: one pick at a time, each the first
# row outside the span of m*M and the orbits of the picks so far, the span
# grown by the orbit of each new pick.
def loop_min_module_rows(ring: FiniteRing, full: np.ndarray, g: int) -> np.ndarray:
    p, k, width = ring.p, ring.k, g * ring.n
    cur = howell_form(maximal_multiples(ring, full, g), p, k, ncols=width)
    sel: list[np.ndarray] = []
    for row in full:
        if not linalg.span_contains(cur, row, p, k):
            sel.append(row)
            cur = howell_form(np.vstack([cur, ring.orbit(row, g)]), p, k, ncols=width)
    return np.array(sel, dtype=np.int64).reshape(len(sel), width)


# ---- hom enumeration (monogenic sources) --------------------------


# Helper of `all_ring_maps`: a power basis found by trying small supports.
def monogenic_generator(r: FiniteRing):
    """A basis-spanning power generator (theta, minpoly) or None."""
    singles = [(i,) for i in range(r.n)]
    pairs = [(i, j) for i in range(r.n) for j in range(i + 1, r.n)]
    for support in singles + pairs:
        g = np.zeros(r.n, dtype=np.int64)
        for i in support:
            g[i] = 1
        powers = [r.one.copy()]
        for _ in range(r.n):
            powers.append(r.mul(powers[-1], g))
        span = linalg.howell_form(np.array(powers[: r.n]), r.p, r.k, ncols=r.n)
        if linalg.span_log_size(span, r.p, r.k) == r.k * r.n:
            # first monic relation among the powers
            for d in range(1, r.n + 1):
                sol = linalg.solve_left(np.array(powers[:d]), (-powers[d]) % r.char, r.p, r.k)
                if sol is not None:
                    return g, list(map(int, sol)) + [1]
    return None


# Oracle for `RingMap.check_hom` and the ring constructors: every unital map
# between two presented rings, by enumerating the images of a generator.
def all_ring_maps(src: FiniteRing, dst: FiniteRing, limit: int = 20000) -> list[RingMap]:
    """All unital ring maps src -> dst, via a monogenic presentation of src."""
    if dst.p != src.p or dst.k > src.k:
        return []
    mono = monogenic_generator(src)
    if mono is None:
        raise BudgetExceeded("source ring is not monogenic; hom enumeration unsupported")
    g, minpoly = mono
    if dst.size > limit:
        raise BudgetExceeded(f"target has {dst.size} elements, limit {limit}")
    powers_src = [src.one.copy()]
    for _ in range(src.n - 1):
        powers_src.append(src.mul(powers_src[-1], g))
    basis_in_powers = np.array(powers_src)
    # express each src basis vector through the power basis once, up front
    span = linalg.FactoredSpan.factor(basis_in_powers, src.p, src.k)
    coeffs, ok = span.solve(np.eye(src.n, dtype=np.int64))
    if not ok.all():
        raise InvariantViolation("power basis fails to express a basis vector")
    out = []
    for cand in elements(dst, limit=limit):
        acc = dst.one.copy()
        val = dst.zero()
        for c in minpoly:
            val = dst.add(val, dst.smul(c, acc))
            acc = dst.mul(acc, cand)
        if val.any():
            continue
        powers_dst = [dst.one.copy()]
        for _ in range(src.n - 1):
            powers_dst.append(dst.mul(powers_dst[-1], cand))
        mat = np.array(
            [sum((int(c) * powers_dst[j] for j, c in enumerate(row)), dst.zero()) % dst.char for row in coeffs]
        )
        m = RingMap(src, dst, mat)
        try:
            m.check_hom()
        except InvariantViolation:
            continue
        if not any(np.array_equal(m.matrix, o.matrix) for o in out):
            out.append(m)
    return out


# ---- modules from presentations -----------------------------------


def _right_kernel_rows(rows: np.ndarray, p: int, k: int) -> np.ndarray:
    """Rows v with rows @ v^T = 0; over Z/p^k the span is the double annihilator."""
    return linalg.kernel(rows.T.copy(), p, k)


# Oracle for `modules.fitting_ideal` (Fitting ideal inside the annihilator) and
# `modules.maximal_multiples` (Nakayama generator counts): a module kept as
# its relation span, with size, length and annihilator read off that span.
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
        if width:  # M/mM is R^g modulo the relations and m*R^g, by every basis row of m
            rows = np.vstack([rows, r.orbit(np.eye(width, dtype=np.int64), self.g, by=r.maximal_ideal().basis)])
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
            return Ideal.from_basis(r, np.eye(r.n, dtype=np.int64))
        rk = _right_kernel_rows(self.relations, r.p, r.k) if self.relations.shape[0] else np.eye(
            self.g * r.n, dtype=np.int64
        )
        if rk.shape[0] == 0:
            # relations fill the ambient module: M = 0
            return Ideal.from_basis(r, np.eye(r.n, dtype=np.int64))
        # x kills M iff x (placed in block j) is orthogonal to the right
        # kernel of the relation span, for every generator slot j
        cons = [rk[:, j * r.n : (j + 1) * r.n].T for j in range(self.g)]
        big = np.hstack(cons)
        ann_rows = linalg.kernel(big, r.p, r.k)
        return Ideal.from_basis(r, ann_rows)

    def __repr__(self):
        return f"<FinModule over {self.ring.name}: {self.g} gens, log size {self.log_size()}>"


# Oracle for the lengths the library takes from sizes, log|I| - log|J|
# (`towers.cotangent_length`, `towers.ideal_colength`): I/J presented as a module.
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


# ---- fixtures -----------------------------------------------------


# Fixture: product groups, such as the C2 x C2 of the character splitter tests.
def direct_product(a: MarkedGroup, b: MarkedGroup, name: str | None = None) -> MarkedGroup:
    ma, mb = a.m, b.m
    _require_order(ma * mb)
    table = np.zeros((ma * mb, ma * mb), dtype=np.int64)
    for x1 in range(ma):
        for y1 in range(mb):
            for x2 in range(ma):
                for y2 in range(mb):
                    table[x1 * mb + y1, x2 * mb + y2] = a.mul(x1, x2) * mb + b.mul(y1, y2)
    names = [f"({a.names[x]},{b.names[y]})" for x in range(ma) for y in range(mb)]
    return MarkedGroup(
        table, a.identity * mb + b.identity, names, name=name or f"{a.name}x{b.name}"
    )


# Fixture: ring elements with the values of single `randrange` draws, for
# the sampled identity and membership tests.
def random_element(r: FiniteRing, rng, count: int | None = None) -> np.ndarray:
    """One element of r, or a (count, n) stack: the values of `count` single
    calls, each `rng.randrange(char)`, and the state of `rng` after them.

    randrange keeps the first 32-bit word whose top char.bit_length() bits
    are below char, and getrandbits(32 W) is the next W words, little
    endian: one block is read, its kept words are the values in order,
    and the state is rewound and advanced by the words they used."""
    shape = (r.n,) if count is None else (count, r.n)
    need, state, width = math.prod(shape), rng.getstate(), math.prod(shape)
    kept = words = np.zeros(0, dtype=np.int64)
    while kept.size < need:
        width = 2 * width + 32
        rng.setstate(state)
        words = np.frombuffer(rng.getrandbits(32 * width).to_bytes(4 * width, "little"), "<u4")
        words = words.astype(np.int64) >> (32 - r.char.bit_length())
        kept = np.flatnonzero(words < r.char)[:need]
    rng.setstate(state)
    rng.getrandbits(32 * (int(kept[-1]) + 1) if need else 0)
    return words[kept].reshape(shape)


# Fixture: the characteristic polynomial x^2 - t(g) x + d(g) at one group
# element, which `psrep.psi_of_rep` tests check Cayley-Hamilton against.
def char_poly_at(psr: Pseudorep2, g: int) -> list[np.ndarray]:
    """Coefficients [c0, c1, c2] of x^2 + c1 x + c0 at g, so c1 = -t, c0 = d."""
    r = psr.ring
    return [psr.d[g].copy(), (-psr.t[g]) % r.char, r.one.copy()]


# Fixture: base[x]/(x^2), the tower whose cotangent length saturates the
# truncation of `towers.cotangent_length`.
def square_zero_algebra(o: DvrModel, name: str | None = None) -> AugmentedAlgebra:
    """base[x]/(x^2), killing x."""
    zero = np.zeros(o.ring.n, dtype=np.int64)
    ring, emb, pi, _, basis = _adjoin_x(o, zero, name or f"{o.ring.name}[x]/(x2)")
    return augmented_algebra(o, ring, pi, emb, basis)


# ---- trace forms --------------------------------------------------


# Oracle for `gma.ch_quotient`: the unpolarized Cayley-Hamilton identity,
# evaluated element by element.
def ch_at(forms: TraceForms, x) -> np.ndarray:
    """x^2 - t(x) x + d(x) 1, the unpolarized identity."""
    al = forms.algebra
    out = al.sub(al.mul(x, x), al.amul(forms.t_el(x), x))
    return al.add(out, al.scalar(forms.d_el(x)))


# Oracle for the trace forms of `psrep.extended_forms` and `gma.ch_quotient`:
# the kernel of the extended determinant law, computed as the radical of the
# trace pairing {x : t(x e) = 0 for all e}.  For a central trace this is
# the whole kernel: cyclicity gives t(x g x h) = t(x * (g x h)) = 0 for any x
# in the radical, so the quadratic obstructions collapse.  The vanishing of
# d~ on the computed radical is still verified element by element and an
# InvariantViolation means the input pair was not a pseudorepresentation.
def kernel_rows(forms: TraceForms) -> np.ndarray:
    """Howell basis of {x : t(x e) = 0 for all e}, verified to kill d~."""
    return _trace_radical(forms.algebra, forms.t_matrix)


def _trace_radical(alg: AssocAlgebra, t_matrix: np.ndarray) -> np.ndarray:
    """Howell basis of the radical {x : t(x e) = 0 for all e} of the trace
    t = x @ t_matrix on `alg`.

    The determinant law must vanish on it: d~(u) = 0 and b_d(u, v) = 0 for
    every pair of basis rows, u = v included; and it must be a two-sided
    ideal.  Any failure raises InvariantViolation.
    """
    a = alg.base
    if alg.n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    eye = np.eye(alg.n, dtype=np.int64)
    # column block i holds t(x e_i) for x running over the basis
    rows = linalg.kernel((alg.table @ t_matrix).reshape(alg.n, -1) % a.char, alg.p, alg.k)
    tr = (rows @ t_matrix) % a.char
    # b_d(u, v) = t(u) t(v) - t(uv) on all pairs of rows, and d~(u) = b_d(u, u) / 2
    b_d = (a.mul_outer(tr, tr) - alg.mul_outer(rows, rows) @ t_matrix) % a.char
    if np.diagonal(b_d).any():
        raise InvariantViolation("determinant law does not vanish on the trace radical")
    if b_d.any():
        raise InvariantViolation("polarized determinant form survives on the trace radical")
    span = linalg.FactoredSpan(rows, alg.p, alg.k)
    if not (span.contains(alg.mul_outer(rows, eye)).all() and span.contains(alg.mul_outer(eye, rows)).all()):
        raise InvariantViolation("trace radical is not an ideal")
    return rows


# ---- GMA coordinates and the reducibility ideal -------------------


# Fixture: the GMA built from pairing data alone, with no group, for the
# pairing-side tests of `gma.gma_decompose` and `gma.reducibility_ideal`.
def abstract_gma(base: FiniteRing, mu, name: str | None = None) -> GmaAlgebra:
    """Hand-built 2x2 pairing algebra with B = C = base and m(b, c) = mu*b*c.

    Basis blocks: scalar corner 1, scalar corner 2, B, C.  Useful for
    exercising pairing-side operations without a pseudorepresentation.
    """
    a = base
    mu = np.asarray(mu, dtype=np.int64) % a.char
    n, p, k = a.n, a.p, a.k
    big = 4 * n
    table = np.zeros((big, big, big), dtype=np.int64)

    def blk(b):
        return slice(b * n, (b + 1) * n)

    mm = a.mul_matrix(mu)
    pair = np.einsum("ijm,ml->ijl", a.table, mm) % a.char  # (x y mu) on basis pairs
    # block products: 1*1->1, 2*2->2, 1*B->B, B*2->B, 2*C->C, C*1->C,
    # B*C->1 and C*B->2 through the pairing; everything else is zero
    for bi, bj, bl, vals in (
        (0, 0, 0, a.table),
        (1, 1, 1, a.table),
        (0, 2, 2, a.table),
        (2, 1, 2, a.table),
        (1, 3, 3, a.table),
        (3, 0, 3, a.table),
        (2, 3, 0, pair),
        (3, 2, 1, pair),
    ):
        table[blk(bi), blk(bj), blk(bl)] = vals
    one = np.zeros(big, dtype=np.int64)
    one[blk(0)] = a.one
    one[blk(1)] = a.one
    embed = np.zeros((n, big), dtype=np.int64)
    embed[:, blk(0)] = np.eye(n, dtype=np.int64)
    embed[:, blk(1)] = np.eye(n, dtype=np.int64)
    alg = AssocAlgebra(p, k, table, one, a, embed, name=name or f"pair({a.name})")
    alg.check_algebra()
    # its trace is t = x11 + x22, the transpose of the base embedding
    forms = TraceForms(alg, a, alg.base_embed.T)
    e1 = np.zeros(big, dtype=np.int64)
    e1[blk(0)] = a.one
    return gma_decompose(forms, e1)



# Check that `gma._ch_algebra` leaves out, as the descent argument in the
# `gma` module docstring implies it; `conftest.py` runs it on every ChAlgebra.
def verify_ch(ch) -> None:
    """The Cayley-Hamilton identity on basis pairs and the group law on
    the images of a ChAlgebra; each check runs on one stack and names its
    first failure.

    The pairs cover every element.  ch_el is bilinear and symmetric, and
    ch_el(x, x) = 2 ch_at(x), where 2 is a unit (`check_modulus` refuses
    p = 2).  So ch_at(sum a_i e_i) = 1/2 sum_{i,j} a_i a_j ch_el(e_i, e_j)
    vanishes once ch_el vanishes on every pair i <= j.
    """
    al = ch.algebra
    if al.n == 0:
        return
    eye = np.eye(al.n, dtype=np.int64)
    left, right = np.triu_indices(al.n)
    bad = ch.ch_el(eye[left], eye[right]).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvariantViolation(f"polarized identity fails on basis pair ({left[row]},{right[row]})")
    m = len(ch.rho_mat)
    prods = al.mul_outer(ch.rho_mat, ch.rho_mat).reshape(m * m, al.n)
    if not np.array_equal(prods, ch.rho_mat[ch.psr.group.table.reshape(-1)]):
        raise InvariantViolation("group images fail to multiply in the quotient")


def _reassembles(gma: GmaAlgebra, xs, x11, x12, x21, x22) -> np.ndarray:
    """Per row: x11 e1 + x12 + x21 + x22 e2 == xs, corners as base scalars."""
    al = gma.algebra
    corners = al.mul(al.scalar(x11), gma.e1) + al.mul(al.scalar(x22), gma.e2)
    return ((corners + x12 + x21) % al.char == xs).all(axis=1)


# Oracle for `gma.gma_decompose`: the group images in Peirce coordinates
# reassemble exactly and keep their off-diagonal parts in the B and C spans.
def coordinate_maps(gma: GmaAlgebra) -> dict:
    """Group images in Peirce coordinates, with exact reassembly.

    rho11 and rho22 are base scalars; rho12 and rho21 keep algebra
    coordinates inside the B and C spans.
    """
    if gma.ch is None:
        raise InputError("coordinate maps need a pseudorep-backed instance")
    ch, al, a = gma.ch, gma.algebra, gma.base
    x = ch.rho_mat
    rho11, rho22 = gma.phi1_of(x), (x @ gma.phi2) % gma.base.char
    rho12, rho21 = (x @ gma.p12) % al.char, (x @ gma.p21) % al.char
    _raise_first([
        (_reassembles(gma, x, rho11, rho12, rho21, rho22), "coordinates do not reassemble the image of {}"),
        (linalg.FactoredSpan(gma.b_basis, a.p, a.k).contains(rho12), "off-diagonal coordinate escapes the B span"),
        (linalg.FactoredSpan(gma.c_basis, a.p, a.k).contains(rho21), "off-diagonal coordinate escapes the C span"),
    ])
    return {"rho11": rho11, "rho12": rho12, "rho21": rho21, "rho22": rho22}


def _ideal_elements(a: FiniteRing, ideal: Ideal, budget: int):
    """Every element of the ideal span, one coefficient range per Howell row."""
    rows = ideal.basis
    if rows.shape[0] == 0:
        yield a.zero()
        return
    info = linalg.pivot_info(rows, a.p, a.k)
    spans = [a.p ** (a.k - info[int(np.nonzero(row)[0][0])]) for row in rows]
    total = 1
    for s in spans:
        total *= s
    if total > budget:
        raise BudgetExceeded(f"ideal has {total} elements, budget {budget}")
    for combo in itertools.product(*(range(s) for s in spans)):
        vec = np.zeros(a.n, dtype=np.int64)
        for c, row in zip(combo, rows):
            vec = vec + c * row
        yield vec % a.char


# Helper of `reducibility_minimality`, checked on its own by the tests.
def maximal_subideals(ideal: Ideal, budget: int = 100000) -> list[Ideal]:
    """Maximal proper subideals of a nonzero ideal in a local ring.

    Every maximal subideal contains m*J, so the candidates live in the
    semisimple quotient J / mJ.  Its submodules are the sums of lines (mJ
    plus one element); a sum is maximal exactly when its index in J is the
    residue field size.
    """
    a = ideal.ring
    if not a.is_local:
        raise InputError("subideal enumeration expects a local ring")
    if ideal.is_zero():
        return []
    m = a.maximal_ideal()
    mj = ideal.mul_ideal(m)
    target_log = ideal.log_size() - a.residue_log_size
    lines: list[Ideal] = []
    seen = set()
    for x in _ideal_elements(a, ideal, budget):
        if mj.contains(x):
            continue
        line = mj.add_ideal(Ideal(a, x.reshape(1, -1)))
        if line not in seen:
            seen.add(line)
            lines.append(line)
    lattice = {mj}
    frontier = [mj]
    while frontier:
        nxt = []
        for cur in frontier:
            for line in lines:
                if cur.contains_ideal(line):
                    continue
                new = cur.add_ideal(line)
                if new not in lattice:
                    lattice.add(new)
                    nxt.append(new)
        frontier = nxt
        if len(lattice) > budget:
            raise BudgetExceeded("subideal lattice exceeds the budget")
    return sorted(
        (j for j in lattice if j.log_size() == target_log),
        key=lambda j: j.basis.tobytes(),
    )


# Oracle for `gma.reducibility_ideal`: no maximal proper subideal already
# splits the trace, by enumerating the subideal lattice.
def reducibility_minimality(gma: GmaAlgebra, budget: int = 100000) -> dict:
    """Check that no maximal proper subideal already splits the trace."""
    if gma.ch is None:
        raise InputError("minimality needs a pseudorep-backed instance")
    red = reducibility_ideal(gma)
    ideal = red["ideal"]
    if ideal.is_zero():
        return {"minimal": True, "checked": 0, "witness": None, "note": "zero ideal, nothing below"}
    a = gma.base
    checked = 0
    for sub in maximal_subideals(ideal, budget=budget):
        q = quotient_ring(a, sub)
        cert = split_as_characters(psrep_base_change(gma.ch.psr, q.proj), budget=budget)
        checked += 1
        if cert["split"]:
            return {
                "minimal": False,
                "checked": checked,
                "witness": sub,
                "note": "a proper subideal already splits the trace",
            }
    return {"minimal": True, "checked": checked, "witness": None, "note": ""}


# ---- the ordinary quotient ----------------------------------------


# Adapter: the decision's stacked J_R = 0 test (`ordinary._j_r_zero`) for one
# GMA, which the tests set against the ideal `ordinary._base_ideal` builds.
def _j_r_is_zero(gma: GmaAlgebra, kappa: GroupChar) -> bool:
    """`_base_ideal(gma, kappa)[2].is_zero()`: `_j_r_zero` of gma's e1."""
    return bool(_j_r_zero(gma.ch, gma.e1[None], kappa)[0])


# Oracle for `ordinary.ordinary_quotient`: the universal property of E_ord,
# checked over every cyclic base ideal.
def ordinary_factorization_check(ctx: OrdinaryContext, budget: int = 200000) -> dict:
    """The universal property of E_ord, verified by enumeration.

    A quotient pair (I, K) -- I an ideal of the base, K a two-sided ideal
    of the Cayley-Hamilton algebra with I E <= K -- carries the ordinary
    relations exactly when the J* generators land in K and the trace maps
    K into I.  Every qualifying pair must contain (J_R, J* + J_R E), and
    that pair itself qualifies; both directions are checked over every
    cyclic base ideal and the two-sided closures of a spanning family of
    seed vectors.  Raises on any violation.
    """
    ch = ctx.gma.ch
    al, a = ch.algebra, ch.base
    if a.size > budget:
        raise BudgetExceeded(f"base has {a.size} elements, budget {budget}")
    oq = ordinary_quotient(ctx)
    # the J* generators of `_relations`, zero rows included
    gens = np.array([v for _, _, v in _relations(ctx.gma, ctx.kappa)], dtype=np.int64).reshape(-1, al.n)
    base_ideals, seen = [], set()
    for x in elements(a, limit=budget):
        ideal = Ideal(a, x.reshape(1, -1))
        key = ideal.basis.tobytes()
        if key not in seen:
            seen.add(key)
            base_ideals.append(ideal)
    rng = random.Random(0)
    seeds = [np.zeros(al.n, dtype=np.int64)]
    seeds.extend(np.eye(al.n, dtype=np.int64))
    seeds.extend(random_element(al, rng, 8))
    seeds.extend(oq.j_star_rows)
    seeds.extend(oq.j_rows)
    qualified = 0
    for ideal in base_ideals:
        ie = _scaled_rows(al, ideal.basis)
        for seed in seeds:
            k_span = linalg.FactoredSpan(two_sided_ideal_rows(al, np.vstack([seed[None], ie])), al.p, al.k)
            if not (k_span.contains(gens).all() and ideal.span.contains(ch.t_el(k_span.h)).all()):
                continue
            qualified += 1
            if not ideal.contains_ideal(oq.j_r):
                raise InvariantViolation("qualifying quotient misses the ordinary base ideal")
            if not k_span.contains(oq.j_rows).all():
                raise InvariantViolation("qualifying quotient misses the ordinary ideal")
    # the canonical pair qualifies
    if not linalg.FactoredSpan(oq.j_rows, al.p, al.k).contains(gens).all():
        raise InvariantViolation("ordinary ideal misses its own generators")
    if not oq.j_r.span.contains(ch.t_el(oq.j_rows)).all():
        raise InvariantViolation("ordinary trace values escape the base ideal")
    return {"ok": True, "qualified": qualified, "base_ideals": len(base_ideals)}


def _dual_numbers(f: FiniteRing):
    return truncated_poly_ring(f, 2, name=f"{f.name}[eps]")


# Oracle for `ordinary.is_ordinary_psrep` and `psrep.split_as_characters`:
# tangent spaces over F[eps] counted by enumerating the linearized solutions.
def ordinary_tangent_count(
    psr: Pseudorep2, kappa: GroupChar | None = None, constraint: str = "all",
    budget: int = 200000,
) -> dict:
    """Dimension of the space of first-order trace deformations.

    Works over a field F with |F| <= 9 and |G| <= 16.  A deformation is a
    delta: G -> F with t + eps delta (and the determinant it forces) again
    a pseudorepresentation over F[eps]; those deltas are exactly the
    kernel of the linearized laws, which is solved as one linear system.
    The solutions are then enumerated and filtered by the requested
    constraint ("all", "ordinary", "reducible-ordinary"), the filtered set
    is checked to be closed under addition, and its F-dimension returned.
    """
    grp, f = psr.group, psr.ring
    if f.k != 1 or not f.is_local or not f.maximal_ideal().is_zero():
        raise InputError("tangent counting expects a field base")
    if f.p**f.n > 9:
        raise InputError("field too large for tangent enumeration")
    if grp.m > 16:
        raise InputError("group too large for tangent enumeration")
    if constraint not in ("all", "ordinary", "reducible-ordinary"):
        raise InputError(f"unknown constraint {constraint!r}")
    if constraint != "all":
        if kappa is None:
            raise InputError("ordinary constraints need kappa")
        if grp.dp is None or grp.ip is None:
            raise InputError("group carries no decomposition/inertia marks")
    psr.check()
    m, nf, p = grp.m, f.n, f.p
    dim_amb = m * nf
    inv2 = pow(2, -1, p)

    def block(g: int, mat=None) -> np.ndarray:
        out = np.zeros((dim_amb, nf), dtype=np.int64)
        out[g * nf : (g + 1) * nf] = np.eye(nf, dtype=np.int64) if mat is None else mat
        return out

    def dd_row(g: int) -> np.ndarray:
        # delta d(g) = inv2 (2 t(g) delta(g) - delta(g^2))
        g2 = grp.mul(g, g)
        r = block(g, f.mul_matrix(f.smul(2, psr.t[g]))) - block(g2)
        return (inv2 * r) % p

    eqs = [block(grp.identity), dd_row(grp.identity)]
    for g in range(m):
        for h in range(m):
            gh, hg = grp.mul(g, h), grp.mul(h, g)
            if g < h and gh != hg:
                eqs.append((block(gh) - block(hg)) % p)
            ghi = grp.mul(g, grp.inv(h))
            row = (
                block(h, f.mul_matrix(psr.t[g]))
                + block(g, f.mul_matrix(psr.t[h]))
                - block(gh)
                - block(ghi, f.mul_matrix(psr.d[h]))
                - (dd_row(h) @ f.mul_matrix(psr.t[ghi]))
            ) % p
            eqs.append(row)
            row = (
                dd_row(gh)
                - dd_row(h) @ f.mul_matrix(psr.d[g])
                - dd_row(g) @ f.mul_matrix(psr.d[h])
            ) % p
            eqs.append(row)
    sol = linalg.kernel(np.hstack(eqs) % p, p, 1)
    fp_dim = sol.shape[0]
    if p**fp_dim > budget:
        raise BudgetExceeded(f"tangent space has {p}^{fp_dim} points, budget {budget}")
    reps = _dual_numbers(f)
    kappa2 = None
    if kappa is not None:
        pad = {g: np.concatenate([kappa(g), np.zeros(nf, dtype=np.int64)]) for g in kappa.domain}
        kappa2 = GroupChar(grp, reps, pad, name=f"{kappa.name}[eps]")

    def as_psrep(delta: np.ndarray) -> Pseudorep2:
        dm = delta.reshape(m, nf)
        t2 = np.zeros((m, reps.n), dtype=np.int64)
        d2 = np.zeros((m, reps.n), dtype=np.int64)
        for g in range(m):
            t2[g] = np.concatenate([psr.t[g], dm[g]])
            dd = (inv2 * (2 * f.mul(psr.t[g], dm[g]) - dm[grp.mul(g, g)])) % p
            d2[g] = np.concatenate([psr.d[g], dd])
        return Pseudorep2(grp, reps, t2, d2, name=f"{psr.name} deform")

    kept = set()
    for coeffs in itertools.product(range(p), repeat=fp_dim):
        delta = (np.asarray(coeffs, dtype=np.int64) @ sol) % p if fp_dim else np.zeros(dim_amb, dtype=np.int64)
        cand = as_psrep(delta)
        rep = validate_pseudorep(cand)
        if not rep["ok"]:
            raise InvariantViolation("linearized solution fails the exact laws")
        if constraint != "all":
            dec = is_ordinary_psrep(cand, kappa2, budget=budget)
            if not dec["supported"]:
                return {
                    "supported": False,
                    "constraint": constraint,
                    "reason": f"ordinarity undecidable on a deformation: {dec['reason']}",
                }
            if not dec["ordinary"]:
                continue
            if constraint == "reducible-ordinary" and not split_as_characters(cand)["split"]:
                continue
        kept.add(tuple(int(c) for c in delta))
    if not kept:
        return {
            "supported": True,
            "constraint": constraint,
            "count": 0,
            "dimension": None,
            "fp_dimension": None,
            "closed_under_addition": True,
            "ambient_fp_dimension": fp_dim,
        }
    if len(kept) <= 128:
        pairs = itertools.combinations_with_replacement(sorted(kept), 2)
    else:
        rng = random.Random(0)
        pool = sorted(kept)
        pairs = ((rng.choice(pool), rng.choice(pool)) for _ in range(500))
    for x, y in pairs:
        s = tuple((a + b) % p for a, b in zip(x, y))
        if s not in kept:
            raise InvariantViolation("constrained deformations are not closed under addition")
    count = len(kept)
    fp_kept = 0
    while p ** (fp_kept + 1) <= count:
        fp_kept += 1
    if p**fp_kept != count:
        raise InvariantViolation("constrained deformation count is not a power of p")
    if fp_kept % nf:
        raise InvariantViolation("constrained deformations are not an F-subspace")
    return {
        "supported": True,
        "constraint": constraint,
        "count": count,
        "dimension": fp_kept // nf,
        "fp_dimension": fp_kept,
        "closed_under_addition": True,
        "ambient_fp_dimension": fp_dim,
    }


# Oracle for the paper's E_red, which no stage computes: the ordinary
# quotient with the reducibility ideal killed too, built by one base change
# and checked against E_ord/(J_red E_ord).  Its base change goes through the
# `ordinary` module, so a test that counts the base changes there counts it.
def reducible_ordinary_quotient(ctx: OrdinaryContext, name: str | None = None) -> dict:
    """Quotient by the ordinary relations plus the reducibility ideal.

    On top of J* this kills every pairing product rho12(g) rho21(h), so the
    base drops to A/(J_R + J_red) and the trace must split there as a pair
    of characters; the split is computed and returned as the certificate.
    The result is the same algebra as E_ord/(J_red E_ord), which is checked
    by comparing log sizes.
    """
    gma, ch = ctx.gma, ctx.gma.ch
    al, a = ch.algebra, ch.base
    oq = ordinary_quotient(ctx)
    jd = Ideal(a, gma.m_table.reshape(-1, a.n))
    total = Ideal(a, np.vstack([oq.j_r.basis, jd.basis]))
    base_quot = quotient_ring(a, total, name=f"{a.name}/JRred")
    collapsed = total.is_unit_ideal()
    if collapsed:
        return {
            "quotient": oq,
            "reducibility_ideal": jd,
            "total_ideal": total,
            "base_quot": base_quot,
            "e_red": None,
            "certificate": None,
            "collapsed": True,
            "rank_match": True,
        }
    cert = split_as_characters(psrep_base_change(ch.psr, base_quot.proj))
    if not cert["split"]:
        raise InvariantViolation("trace fails to split modulo the reducibility ideal")
    # two-sided generators: J* plus the pairing products
    prods = al.mul_outer((ch.rho_mat @ gma.p12) % al.char, (ch.rho_mat @ gma.p21) % al.char)
    extra = np.vstack([oq.j_star_rows.reshape(-1, al.n), prods.reshape(-1, al.n)])
    e_red, proj_mat = ordinary.ch_base_change(ch, base_quot.proj, name or f"{al.name} red-ord", extra)
    rank_match = True
    if oq.e_ord is not None:
        # E_red must be E_ord with the reducibility ideal extended, nothing more
        eo = oq.e_ord
        abar = oq.base_quot.ring
        jd_bar = Ideal(abar, oq.base_quot.proj(jd.basis))
        rows = two_sided_ideal_rows(eo.algebra, _scaled_rows(eo.algebra, jd_bar.basis))
        q = quotient_algebra(eo.algebra, rows)
        lhs = q.ring.k * q.ring.n
        rhs = e_red.algebra.k * e_red.algebra.n
        rank_match = lhs == rhs
        if not rank_match:
            raise InvariantViolation("reducible ordinary quotient has the wrong size")
    return {
        "quotient": oq,
        "reducibility_ideal": jd,
        "total_ideal": total,
        "base_quot": base_quot,
        "e_red": e_red,
        "red_proj": proj_mat,
        "certificate": cert,
        "collapsed": False,
        "rank_match": rank_match,
    }
