"""Truncated-DVR commutative algebra: augmented algebras, congruence
ideals, the numerical isomorphism criterion, and fiber-product towers.

The base object is a DvrModel: Lambda = F_q[t]/(t^N) standing in for a
discrete valuation ring.  N stays strictly larger than every length in
play, so finite-length statements transfer verbatim.  Annihilators are
the one place the truncation shows: killing t^r drags in a spurious
tail of valuation >= N - r that the honest DVR does not have.  Every
comparison below that involves an annihilator therefore happens inside
an explicit window, with the tail ideal (t^(N - 2r)) added to both
sides, and the one-sided containments that hold on the nose are still
checked exactly.

An AugmentedAlgebra is a finite free local Lambda-algebra T with a
surjection pi: T -> Lambda splitting the structure map.  Its
eta-invariant pi(Ann_T(ker pi)) is the classical congruence ideal.  The
numerical criterion (lenstra_check) takes a surjection R ->> T over
Lambda and compares the cotangent length of ker(R -> Lambda) against
the colength of eta: once

    len(J/J^2) <= len(Lambda / eta)

the map is forced to be an isomorphism and T a complete intersection.
Both promises are re-verified directly, by exact linear algebra and by
the principal-ideal presentation route, and a discrepancy is a hard
failure rather than a report entry.

Each stock algebra comes with its Lambda-basis, which `augmented_algebra`
checks; none is searched for.  The "mod" h-level Lambda/(t^j), j >= 1, is
killed by t^j, so it is not free, and is refused before it is built.

An EisensteinTower glues a finite flat local Lambda-algebra h, given
with a surjection onto Lambda/(t^r), against Lambda itself:

    H = h x_{Lambda/(t^r)} Lambda.

The kernel of H -> h is principal, generated by an element T0 whose
image in Lambda is xi = t^r; the kernel of H -> Lambda is isomorphic to
I = ker(h -> Lambda/(t^r)) as an H-module; and the two kernels are each
other's annihilators (exactly in the limit, modulo the tail window
here).  theorem_audit evaluates the table of structural conditions that
are equivalent for such gluings: principal Eisenstein ideal generated
by a non-zero divisor, both kernels principal, embedding dimension two,
Gorenstein special fibers.  The audit refuses to let decided conditions
disagree, and certifies a complete intersection presentation whenever
the principal route applies.

`build_eisenstein_tower` proves only the tower claims that depend on h
(`_verify_tower`).  The construction implies the others, and the tests
check them on every tower they build (`tests/conftest.py`):
- colength r of h/I: h -> base/(t^r) is onto, so h/I is base/(t^r);
- colength r of H/I_H, I_H the kernel of H -> h -> base/(t^r): H -> h is
  onto, so H/I_H is h/I;
- ker(H -> base) matches I: ker pr_lam is I x 0, which pr_h maps onto I;
- ker(H -> h) times ker(H -> base) is 0: (0, b)(a, 0) = 0 in H;
- Ann(ker(H -> h)) is ker(H -> base) modulo the tail: ker(H -> h) is
  0 x t^r base, whose annihilator in H is I x t^(N - r) base, and
  0 x t^(N - r) base lies in the tail (t^(N - 2r)) as 4r <= N.

`_min_module_rows` neither proves that its picks generate M nor counts
them against d.  A row is picked iff it lies outside mM plus the orbits
of the rows before it, so the picks and mM span M, and the picks
generate M by Nakayama (m is nilpotent).  Each pick lies outside the
k-span of the picks before it modulo mM, so their classes are a k-basis
of M/mM: d of them.  The tests run both checks on every call they make
(`tests/conftest.py`).

A unit (one tower built, audited, put through the criterion and
replayed) derives each object once, and keeps it on the object that
owns its input: the tower keeps the AugmentedAlgebra its h-level was
built as (`hlevel`, which the criterion stage reads instead of building
it again) and the minimal generators of I (`i_gens`, shared by
theorem_audit and fitting_replay), and each Ideal keeps its annihilator
(`Ideal.annihilator`).  Nothing a ring holds points back at an ideal of
it: an ideal refers to its ring, so a ring that cached one of its ideals
(its radical, say) would close a reference cycle, which only the cyclic
garbage collector frees, and the rings of finished units would stay in
memory until it ran.  No memo outlives the objects of its unit.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from . import linalg
from .errors import BudgetExceeded, InputError, InvariantViolation
from .modules import fitting_ideal, maximal_multiples, ring_det
from .rings import (
    MAX_POLY_DIM,
    DvrModel,
    FiniteRing,
    Ideal,
    RingMap,
    embedding_dimension,
    fiber_product,
    gorenstein_test,
    quotient_ring,
)
from .serialize import int_field, str_field

__all__ = [
    "AugmentedAlgebra",
    "EisensteinTower",
    "audit_table",
    "augmented_algebra",
    "axis_algebra",
    "base_algebra",
    "branch_algebra",
    "build_eisenstein_tower",
    "complete_intersection_route",
    "cotangent_length",
    "eta_invariant",
    "fitting_replay",
    "ideal_colength",
    "lenstra_check",
    "theorem_audit",
    "tower_corpus",
    "tower_eta",
]


# largest dimension s * dim(base) of an axes algebra: its (n, n, n) table is
# built whole, and past it the replay spends seconds before its minor-count
# budget refuses the tower (axes3 at s = 11, dimension 88: 13 s); the golden
# axes towers have dimension at most 32
MAX_AXES_DIM = 64

# most maximal minors the Fitting replay computes; `_min_module_rows`
# refuses a module whose minimal relations would exceed it before picking
_MINOR_BUDGET = 20000


# ---- base-module linear algebra ------------------------------------


def _free_basis(o: DvrModel, ring: FiniteRing, emb: RingMap, basis) -> np.ndarray:
    """The candidate base-module basis of the ring, checked: Lambda^d ->
    ring is onto and the sizes agree, which pins freeness exactly."""
    basis = np.asarray(basis, dtype=np.int64) % ring.char
    span = linalg.howell_form(ring.orbit(basis, by=emb.matrix), ring.p, ring.k, ncols=ring.n)
    if linalg.span_log_size(span, ring.p, ring.k) != ring.k * ring.n:
        raise InputError("algebra is not spanned by the base-module basis")
    if basis.shape[0] * o.ring.n != ring.n:
        raise InputError("algebra is not free over the base")
    return basis


def _coordinate_span(ring: FiniteRing, emb: RingMap, basis: np.ndarray) -> linalg.FactoredSpan:
    """Factored rows indexed (basis element, base coordinate), for coefficient solves."""
    rows = np.einsum("in,bnm->ibm", basis % ring.char, ring.mul_matrix(emb.matrix))
    return linalg.FactoredSpan.factor(rows.reshape(-1, ring.n) % ring.char, ring.p, ring.k)


# ---- augmented algebras --------------------------------------------


@dataclass(eq=False)
class AugmentedAlgebra:
    """Finite free local algebra over a DvrModel with a split augmentation."""

    o: DvrModel
    ring: FiniteRing
    pi: RingMap
    emb: RingMap
    wp: Ideal
    rank: int
    lam_basis: np.ndarray

    def __repr__(self):
        return f"<AugmentedAlgebra {self.ring.name}: rank {self.rank} over {self.o.ring.name}>"


def augmented_algebra(o: DvrModel, ring: FiniteRing, pi: RingMap, emb: RingMap, basis) -> AugmentedAlgebra:
    """Assemble and fully verify the augmented structure.

    Checks: both maps are homomorphisms, pi is surjective and splits
    emb, the ring is local with the base's residue field, and the ring
    is free as a base module on `basis` (rank counted, not assumed).
    """
    if ring.p != o.ring.p or ring.k != o.ring.k:
        raise InputError("algebra and base must share characteristic")
    if pi.src is not ring or pi.dst is not o.ring:
        raise InputError("pi must map the algebra onto the base")
    if emb.src is not o.ring or emb.dst is not ring:
        raise InputError("emb must map the base into the algebra")
    pi.check_hom()
    emb.check_hom()
    if not pi.is_surjective():
        raise InputError("augmentation must be surjective")
    if not np.array_equal(emb.then(pi).matrix % o.ring.char, np.eye(o.ring.n, dtype=np.int64)):
        raise InputError("augmentation does not split the structure map")
    if not ring.is_local:
        raise InputError("augmented algebras are assumed local")
    if ring.residue_log_size != o.ring.residue_log_size:
        raise InputError("residue field must match the base")
    b = _free_basis(o, ring, emb, basis)
    return AugmentedAlgebra(o=o, ring=ring, pi=pi, emb=emb, wp=pi.kernel_ideal(), rank=b.shape[0], lam_basis=b)


def base_algebra(o: DvrModel) -> AugmentedAlgebra:
    """The base itself, augmented by the identity."""
    ident = RingMap.identity(o.ring)
    return augmented_algebra(o, o.ring, ident, RingMap.identity(o.ring), o.ring.one.reshape(1, -1))


def eta_invariant(t: AugmentedAlgebra) -> Ideal:
    """pi(Ann(ker pi)): the congruence ideal of the augmentation."""
    return Ideal(t.o.ring, (t.wp.annihilator().basis @ t.pi.matrix) % t.o.ring.char)


def _o_length(o: DvrModel, log_size: int) -> int:
    res = o.ring.residue_log_size
    if log_size % res:
        raise InvariantViolation("size is not a power of the residue field")
    return log_size // res


def ideal_colength(o: DvrModel, ideal: Ideal) -> int:
    """Length of ring/ideal, counted in residue-field factors of the base."""
    r = ideal.ring
    return _o_length(o, r.k * r.n - ideal.log_size())


def cotangent_length(ring: FiniteRing, wp: Ideal, o: DvrModel) -> int:
    """Length of wp/wp^2 over the base.

    wp^2 lies in wp, so log|wp/wp^2| = log|wp| - log|wp^2| exactly; no
    presentation of the quotient module is needed.

    A value at or beyond the truncation order of the base is only a
    lower bound for the untruncated object; callers are expected to
    compare it against quantities that stay below that order.
    """
    if wp.ring is not ring:
        raise InputError("ideal does not live in the given ring")
    # a proper ideal as large as m is m, whose square the ring holds
    if ring.is_local and wp.log_size() == ring.k * ring.n - ring.residue_log_size:
        return _o_length(o, wp.log_size() - linalg.span_log_size(ring._maximal_square, ring.p, ring.k))
    return _o_length(o, wp.log_size() - wp.mul_ideal(wp).log_size())


# ---- minimal generators and the principal-ideal route ----------------


def _min_module_rows(ring: FiniteRing, full: np.ndarray, g: int) -> np.ndarray:
    """Minimal generators of the submodule M of ring^g with the Howell
    basis `full`, taken as given (`rings` module docstring), picked from its
    rows by Nakayama; for g = 1 and an ideal's basis, a minimal generating
    set of the ideal (a generator first, when it is principal).

    By Nakayama d = log_p(|M| / |mM|) over the residue degree e rows are
    needed; the picks are the rows of `full`, in order, outside the span
    of mM and the orbits of the rows before them.  So when exactly d rows
    lie outside mM they are the picks.  Otherwise, with b_1 = 1, ..., b_e
    lifts of an F_p basis of the residue field k, b_a * full_j mod mM
    depends only on a coefficient mod p, as p lies in m; U, the F_p
    relations among these rows mod mM, is the first s*e columns, mod p, of
    the kernel of [b * full; mM].  A vector of U whose last nonzero entry
    is in block i puts lambda * full_i, lambda != 0 in k, in the k-span of
    the rows before it mod mM, which is where the orbit of full_i lies.  So
    row i is picked iff no pivot of the Howell form of U with its columns
    reversed falls in block i.

    The picks are returned without a proof that they generate M (module
    docstring).  As the relations of a module on g generators, the d picks
    have C(d, g) maximal minors; past _MINOR_BUDGET, the most the Fitting
    replay takes, the module is refused once d is known, before any pick
    runs.
    """
    p, k, width = ring.p, ring.k, g * ring.n
    if full.shape[0] == 0:
        return np.zeros((0, width), dtype=np.int64)
    mm = linalg.howell_form(maximal_multiples(ring, full, g), p, k, ncols=width)
    e = ring.residue_log_size
    d, rest = divmod(linalg.span_log_size(full, p, k) - linalg.span_log_size(mm, p, k), e)
    if rest:
        raise InvariantViolation("|M/mM| is not a power of the residue field size")
    if math.comb(d, g) > _MINOR_BUDGET:
        raise BudgetExceeded(f"minor count {math.comb(d, g)} exceeds budget {_MINOR_BUDGET}")
    picks = np.flatnonzero(linalg.FactoredSpan(mm, p, k).reduce(full)[0].any(axis=1))
    if picks.size != d:
        # b: the first of 1, e_1, ..., e_n whose residues are independent
        cand = np.vstack([ring.one, np.eye(ring.n, dtype=np.int64)])
        b = cand[(linalg.howell_form((cand @ ring._residue_map).T % p, p, 1) != 0).argmax(axis=1)]
        s = full.shape[0]
        u = linalg.kernel(np.vstack([ring.orbit(full, g, by=b), mm]), p, k)[:, : e * s] % p  # column a*s + j
        u = u.reshape(-1, e, s).transpose(0, 2, 1).reshape(-1, s * e)[:, ::-1]  # column j*e + a, reversed
        last = s * e - 1 - (linalg.howell_form(u, p, 1, ncols=s * e) != 0).argmax(axis=1)
        picks = np.flatnonzero(np.bincount(last // e, minlength=s) == 0)  # np.unique would import numpy.ma
    return full[picks]


def _mult_matrix_over_base(o: DvrModel, ring: FiniteRing, emb: RingMap, basis: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Matrix of multiplication by g in the given base-module basis."""
    d = basis.shape[0]
    sol, ok = _coordinate_span(ring, emb, basis).solve((basis @ ring.mul_matrix(g)) % ring.char)
    if not ok.all():
        raise InvariantViolation("product left the base-module span")
    return sol.reshape(d, d, o.ring.n)


def _nzd_by_determinant(o: DvrModel, ring: FiniteRing, emb: RingMap, basis: np.ndarray, g: np.ndarray) -> bool:
    # det of multiplication by g has valuation = colength of (g) when g is
    # regular; Eisenstein colengths stay below the truncation order, so a
    # vanishing det here certifies a genuine zero divisor
    return bool(ring_det(o.ring, _mult_matrix_over_base(o, ring, emb, basis, g)).any())


def _monogenic_presentation(o: DvrModel, ring: FiniteRing, emb: RingMap, gen: np.ndarray, rank: int) -> dict:
    """ring = base[gen] with a single monic relation of degree rank."""
    pows = [ring.one.copy()]
    for _ in range(rank):
        pows.append(ring.mul(pows[-1], gen))
    basis = np.array(pows[:rank], dtype=np.int64)
    span = _coordinate_span(ring, emb, basis)
    if linalg.span_log_size(span.h, ring.p, ring.k) != ring.k * ring.n:
        raise InvariantViolation("principal kernel did not yield a monogenic presentation")
    rel = span.solve(pows[rank])[0].reshape(rank, o.ring.n)
    acc = np.zeros(ring.n, dtype=np.int64)
    for i in range(rank):
        acc = (acc + ring.mul(emb(rel[i]), pows[i])) % ring.char
    if not np.array_equal(acc, pows[rank] % ring.char):
        raise InvariantViolation("monogenic relation failed to verify")
    return {"degree": rank, "generator": gen.copy(), "relation": rel}


def complete_intersection_route(t: AugmentedAlgebra):
    """Certify T as base[x]/(monic) when ker(pi) is principal, else None.

    A principal augmentation kernel forces the generator to span the
    whole algebra over the base; no other complete intersection test is
    attempted.
    """
    gens = _min_module_rows(t.ring, t.wp.basis, 1)
    if gens.shape[0] == 0:
        if t.rank != 1:
            raise InvariantViolation("trivial augmentation kernel on a higher-rank algebra")
        return {"degree": 1, "generator": None, "relation": None}
    if gens.shape[0] != 1:
        return None
    return _monogenic_presentation(t.o, t.ring, t.emb, gens[0], t.rank)


# ---- the numerical criterion ---------------------------------------


def lenstra_check(R: FiniteRing, phi: RingMap, T: AugmentedAlgebra) -> dict:
    """Numerical isomorphism criterion for a surjection R ->> T over the base.

    Compares the cotangent length of ker(R -> base) with the colength
    of the congruence ideal of T.  When the criterion is met the
    isomorphism and the complete intersection property stop being
    predictions: both are verified directly, and a mismatch raises
    instead of reporting.
    """
    if phi.src is not R or phi.dst is not T.ring:
        raise InputError("comparison map must run from R onto the augmented algebra")
    if not phi.is_surjective():
        raise InputError("comparison map must be surjective")
    phi.check_hom()
    pi_r = phi.then(T.pi)
    j = pi_r.kernel_ideal()
    lj = cotangent_length(R, j, T.o)
    eta = eta_invariant(T)
    le = ideal_colength(T.o, eta)
    out = {
        "cotangent_length": lj,
        "eta_colength": le,
        "criterion_met": lj <= le,
        "isomorphism": None,
        "complete_intersection": None,
        "truncation": T.o.trunc,
    }
    if not out["criterion_met"]:
        return out
    if not phi.is_injective():
        raise InvariantViolation("numerical criterion promised an isomorphism but the map has a kernel")
    out["isomorphism"] = True
    ci = complete_intersection_route(T)
    if ci is not None:
        out["complete_intersection"] = True
        out["presentation_degree"] = ci["degree"]
    return out


# ---- stock algebras -------------------------------------------------


def _adjoin_x(o: DvrModel, square: np.ndarray, name: str):
    """base[x] with x^2 = square * x, square in the maximal ideal of the base,
    carrying rho = pi . rho_base (`rings` module docstring)."""
    nl = o.ring.n
    n = 2 * nl
    if n > MAX_POLY_DIM:  # refused before the n^3 table is allocated
        raise InputError(f"{name} of dimension 2 * {nl} = {n} exceeds the supported maximum {MAX_POLY_DIM}")
    base = o.ring.table
    table = np.zeros((n, n, n), dtype=np.int64)
    table[:nl, :nl, :nl] = base
    table[:nl, nl:, nl:] = base
    table[nl:, :nl, nl:] = base
    sq = o.ring.mul_matrix(square % o.ring.char)
    table[nl:, nl:, nl:] = np.einsum("ijl,lm->ijm", base, sq) % o.ring.char
    one = np.zeros(n, dtype=np.int64)
    one[:nl] = o.ring.one
    ring = FiniteRing(o.ring.p, o.ring.k, table, one, name=name)
    ring.check_ring()
    eye = np.eye(nl, dtype=np.int64)
    zero = np.zeros((nl, nl), dtype=np.int64)
    # both maps are checked by `augmented_algebra`, which every caller runs
    emb = RingMap(o.ring, ring, np.hstack([eye, zero]), name="emb")
    pi = RingMap(ring, o.ring, np.vstack([eye, zero]), name="pi")
    ring._residue_map = (pi.matrix @ o.ring._residue_map) % o.p
    x = np.zeros(n, dtype=np.int64)
    x[nl:] = o.ring.one
    return ring, emb, pi, x, np.vstack([one, x])


def branch_algebra(o: DvrModel, m: int, name: str | None = None) -> AugmentedAlgebra:
    """Two copies of the base meeting to order m: base[x]/(x^2 - t^m x)."""
    if m < 1:
        raise InputError("branch meeting order must be >= 1")
    ring, emb, pi, _, basis = _adjoin_x(o, o.t(m), name or f"{o.ring.name}[x]/(x2-t{m}x)")
    return augmented_algebra(o, ring, pi, emb, basis)


def axis_algebra(o: DvrModel, s: int, name: str | None = None) -> AugmentedAlgebra:
    """s copies of the base glued along t = 0, augmented onto the first."""
    if s < 2:
        raise InputError("axis count must be >= 2")
    nl = o.ring.n
    n = s * nl
    if n > MAX_AXES_DIM:  # refused before the n^3 table is allocated
        raise InputError(f"axes algebra of dimension h.s * {nl} = {s} * {nl} = {n} exceeds {MAX_AXES_DIM}")
    base = o.ring.table
    t1 = o.ring.mul_matrix(o.t(1))
    table = np.zeros((n, n, n), dtype=np.int64)
    table[:nl, :nl, :nl] = base
    for a in range(1, s):
        lo, hi = a * nl, (a + 1) * nl
        table[:nl, lo:hi, lo:hi] = base
        table[lo:hi, :nl, lo:hi] = base
        table[lo:hi, lo:hi, lo:hi] = np.einsum("ijl,lm->ijm", base, t1) % o.ring.char
    one = np.zeros(n, dtype=np.int64)
    one[:nl] = o.ring.one
    ring = FiniteRing(o.ring.p, o.ring.k, table, one, name=name or f"axes{s}({o.ring.name})")
    ring.check_ring()
    eye = np.eye(nl, dtype=np.int64)
    emb = RingMap(o.ring, ring, np.hstack([eye] + [np.zeros((nl, nl), dtype=np.int64)] * (s - 1)), name="emb")
    pi = RingMap(ring, o.ring, np.vstack([eye] + [np.zeros((nl, nl), dtype=np.int64)] * (s - 1)), name="pi")
    ring._residue_map = (pi.matrix @ o.ring._residue_map) % o.p  # e_a^2 = t e_a (`rings` module docstring)
    basis = np.zeros((s, n), dtype=np.int64)
    basis[0] = one
    for a in range(1, s):
        basis[a, a * nl : a * nl + nl] = o.ring.one
    return augmented_algebra(o, ring, pi, emb, basis)


# ---- Eisenstein towers ----------------------------------------------


@dataclass(eq=False)
class EisensteinTower:
    """h glued against the base over base/(t^r), with all the kernels named.

    hlevel is the augmented h-level algebra the tower was glued from: h is
    its ring, emb_h its structure map and h_basis its base-module basis.
    I lives in h, script_I in H; T0 generates ker(H -> h) and
    maps to xi = t^r on the base side.  glue is the width of the
    truncation tail used for annihilator comparisons.

    H itself is not free over the truncated base (its size is one
    t-power short of the free rank-two module; only the limit is flat),
    which is why the tower carries its congruence ideal through
    tower_eta rather than through an AugmentedAlgebra view.
    """

    lam: DvrModel
    r: int
    xi: np.ndarray
    label: str
    hlevel: AugmentedAlgebra
    H: FiniteRing
    pr_h: RingMap
    pr_lam: RingMap
    emb_H: RingMap
    I: Ideal
    script_I: Ideal
    ker_h: Ideal
    T0: np.ndarray
    degenerate: bool

    @property
    def h(self) -> FiniteRing:
        return self.hlevel.ring

    @property
    def emb_h(self) -> RingMap:
        return self.hlevel.emb

    @property
    def h_basis(self) -> np.ndarray:
        return self.hlevel.lam_basis

    @property
    def glue(self) -> int:
        return 2 * self.r

    @cached_property
    def i_gens(self) -> np.ndarray:
        """Minimal generators of I, a generator first when I is principal."""
        return _min_module_rows(self.h, self.I.basis, 1)

    def __repr__(self):
        return f"<EisensteinTower {self.label}: dim {self.H.n}, r={self.r}>"


def _h_level(lam: DvrModel, h_spec: dict) -> AugmentedAlgebra:
    kind = str_field(h_spec, "kind", ("plane", "branch", "axes", "mod"))
    if kind == "plane":
        return base_algebra(lam)
    if kind == "branch":
        m = int_field(h_spec, "m")
        if m < 1:
            raise InputError(f"branch meeting order h.m must be >= 1, got {m}")
        return branch_algebra(lam, m)
    if kind == "axes":
        s = int_field(h_spec, "s")
        if s < 2:
            raise InputError(f"axis count h.s must be >= 2, got {s}")
        return axis_algebra(lam, s)
    j = int_field(h_spec, "j")
    if j < 1:
        raise InputError(f"torsion level h.j must be >= 1, got {j}")
    # base/t^j is killed by t^j, so it is no free base module: nothing to build
    raise InputError("algebra is not free over the base")


def _default_label(lam: DvrModel, r: int, h_spec: dict) -> str:
    kind = h_spec["kind"]
    extra = f"-m{h_spec['m']}" if kind == "branch" else f"-s{h_spec['s']}" if kind == "axes" else ""
    return f"{kind}-F{lam.q}{extra}-r{r}"


def build_eisenstein_tower(lam: DvrModel, r: int, h_spec: dict) -> EisensteinTower:
    """Glue the h-level of h_spec against the base over base/(t^r).

    h_spec kinds: "plane" (h is the base), "branch" (two copies meeting
    to order m), "axes" (s copies glued at the origin), "mod" (base/t^j
    for j >= 1: torsion, so refused as not free before anything is
    built).  r = 0 glues over the zero ring through `fiber_product`, as
    every r does: a fibre product over C = 0 is h x base, which is not
    local and so carries no residue map, and that tower comes back
    flagged.  The paper's claims on the tower are verified before it is
    returned (`_verify_tower`).

    emb_H is not checked as a homomorphism: the exact solve gives
    (pr_h, pr_lam) emb_H = (emb_h, id), where (pr_h, pr_lam) is injective,
    unital and multiplicative and `augmented_algebra` checked emb_h.
    """
    if r < 0:
        raise InputError("gluing exponent must be >= 0")
    if r > 0 and 4 * r > lam.trunc:
        raise InputError("truncation too shallow: the tail window needs 4r <= N")
    hlevel = _h_level(lam, h_spec)
    hring, emb_h = hlevel.ring, hlevel.emb
    label = str_field(h_spec, "label", default="") or _default_label(lam, r, h_spec)
    lam_quot = lam.quotient_mod_t(r)
    # onto: `augmented_algebra` checked pi, and `quotient_ring` the section of its projection
    aug = hlevel.pi.then(lam_quot.proj)
    xi = lam.t(r)
    nh, nl = hring.n, lam.ring.n
    H, pr_h, pr_lam = fiber_product(aug, lam_quot.proj, name=f"H({label})")
    # one factorization of the (pr_h, pr_lam) coordinates serves the nl
    # diagonal images of the base and the lift of (0, xi)
    span = linalg.FactoredSpan.factor(np.hstack([pr_h.matrix, pr_lam.matrix]), H.p, H.k)
    rhs = np.vstack([
        np.hstack([emb_h.matrix, np.eye(nl, dtype=np.int64)]),
        np.concatenate([np.zeros(nh, dtype=np.int64), xi]),
    ])
    sols, ok = span.solve(rhs)
    if not ok[:nl].all():
        raise InvariantViolation("base does not embed diagonally into the tower")
    emb_H = RingMap(lam.ring, H, sols[:nl], name="emb")
    i_ideal = aug.kernel_ideal()
    ker_h = pr_h.kernel_ideal()
    script_i = pr_lam.kernel_ideal()
    if not ok[nl]:
        raise InvariantViolation("no tower element projects to (0, xi)")
    t0 = sols[nl]
    if not linalg.span_equal(Ideal(H, t0.reshape(1, -1)).basis, ker_h.basis):
        raise InvariantViolation("ker(H -> h) is not generated by the xi-lift")
    tower = EisensteinTower(
        lam=lam,
        r=r,
        xi=xi,
        label=label,
        hlevel=hlevel,
        H=H,
        pr_h=pr_h,
        pr_lam=pr_lam,
        emb_H=emb_H,
        I=i_ideal,
        script_I=script_i,
        ker_h=ker_h,
        T0=t0,
        degenerate=r == 0,
    )
    _verify_tower(tower)
    return tower


def tower_eta(t: EisensteinTower) -> Ideal:
    """Congruence ideal of the tower's augmentation onto the base."""
    return Ideal(t.lam.ring, (t.script_I.annihilator().basis @ t.pr_lam.matrix) % t.lam.ring.char)


def _verify_tower(t: EisensteinTower) -> None:
    """The tower claims that depend on h: H local (free, as H carries its
    residue map), Ann(ker(H -> base)) against ker(H -> h) beyond the tail
    and eta = (xi).  The claims the construction implies are left to the
    tests (module docstring), and so is what the solve in
    `build_eisenstein_tower` gives, and h local."""
    lam, H = t.lam, t.H
    if not t.degenerate and not H.is_local:
        raise InvariantViolation("tower levels must be local")
    # Ann_H(script_I) matches ker(H -> h) inside the window exactly when
    # Ann_h(I) vanishes modulo the tail, which depends on h
    tail = Ideal(H, t.emb_H(lam.t(lam.trunc - t.glue)).reshape(1, -1))
    if not linalg.span_equal(t.script_I.annihilator().add_ideal(tail).basis, t.ker_h.add_ideal(tail).basis):
        raise InvariantViolation("Ann(ker(H -> base)) exceeds its partner beyond the truncation tail")
    # the congruence ideal is (xi), exactly
    eta = tower_eta(t)
    if not linalg.span_equal(eta.basis, Ideal(lam.ring, t.xi.reshape(1, -1)).basis):
        raise InvariantViolation("tower congruence ideal is not (xi)")
    if ideal_colength(lam, eta) != t.r:
        raise InvariantViolation("congruence colength does not match the gluing exponent")


# ---- the condition table --------------------------------------------

_AUDIT_KEYS = (
    "regular_base",
    "principal_nzd",
    "both_principal",
    "embdim",
    "embdim_two",
    "gorenstein_h",
    "gorenstein_full",
    "both_gorenstein",
    "multiplicity_one",
    "eisenstein_generators",
    "eisenstein_colength",
    "colength_matches_r",
    "transversality_field",
    "complete_intersection",
)


def theorem_audit(t: EisensteinTower) -> dict:
    """Evaluate the structural condition table for one tower.

    The block {principal_nzd, both_principal, embdim_two,
    both_gorenstein} is a set of equivalent conditions for these
    gluings; a split verdict raises instead of reporting.  A principal
    Eisenstein ideal additionally certifies a complete intersection
    presentation of h.  Undecidable entries say "skipped".
    """
    out: dict = {"label": t.label, "r": t.r, "degenerate": t.degenerate}
    if t.degenerate:
        out.update({key: "skipped" for key in _AUDIT_KEYS})
        out["consistent"] = True
        return out
    lam = t.lam
    fib_h = quotient_ring(t.h, Ideal(t.h, t.emb_h(lam.t(1)).reshape(1, -1)), name="h/t")
    out["regular_base"] = bool(fib_h.ring.maximal_ideal().is_zero() or t.h_basis.shape[0] == 1)
    gens = t.i_gens
    count = gens.shape[0]
    out["eisenstein_generators"] = count
    out["principal_nzd"] = count == 1 and _nzd_by_determinant(lam, t.h, t.emb_h, t.h_basis, gens[0])
    out["both_principal"] = count == 1 and _min_module_rows(t.H, t.script_I.basis, 1).shape[0] == 1
    out["embdim"] = embedding_dimension(t.H)
    out["embdim_two"] = out["embdim"] == 2
    out["gorenstein_h"] = gorenstein_test(fib_h.ring)
    fib_full = quotient_ring(t.H, Ideal(t.H, t.emb_H(lam.t(1)).reshape(1, -1)), name="H/t")
    out["gorenstein_full"] = gorenstein_test(fib_full.ring)
    out["both_gorenstein"] = out["gorenstein_h"] and out["gorenstein_full"]
    out["multiplicity_one"] = t.r == 1
    out["eisenstein_colength"] = ideal_colength(lam, t.I)
    out["colength_matches_r"] = out["eisenstein_colength"] == t.r
    # h tensored against H/ker(H -> base): a field iff the branches meet once
    tens = quotient_ring(t.h, Ideal(t.h, (t.script_I.basis @ t.pr_h.matrix) % t.h.char), name="h@")
    out["transversality_field"] = bool(tens.ring.maximal_ideal().is_zero())
    decided = {out["principal_nzd"], out["both_principal"], out["embdim_two"], out["both_gorenstein"]}
    if len(decided) > 1:
        raise InvariantViolation(f"equivalent conditions disagree on {t.label}")
    out["consistent"] = True
    if out["principal_nzd"]:
        pres = _monogenic_presentation(lam, t.h, t.emb_h, gens[0], t.h_basis.shape[0])
        out["complete_intersection"] = True
        out["presentation_degree"] = pres["degree"]
    else:
        out["complete_intersection"] = None
    return out


def audit_table(towers) -> list[dict]:
    """One audit row per tower, sorted by label."""
    return [theorem_audit(t) for t in sorted(towers, key=lambda t: t.label)]


# ---- Fitting-ideal replay of the cotangent bound ---------------------


def fitting_replay(t: EisensteinTower) -> dict:
    """Independent replay of the cotangent lower bound on the h-level.

    Ann_h(I) and Fitt_h(I) both vanish below the truncation tail, and
    I/I^2 is at least as long as h/I; that length is log|I| - log|I^2|
    (`cotangent_length`), since I^2 lies in I.  Each quantity is computed
    on its own; the implication (vanishing annihilator forces the vanishing
    Fitting ideal and the bound) is enforced, not assumed.
    """
    lam, h = t.lam, t.h
    tail = Ideal(h, t.emb_h(lam.t(lam.trunc - t.glue)).reshape(1, -1))
    ann_ok = tail.contains_ideal(t.I.annihilator())
    gens = t.i_gens
    d = gens.shape[0]
    if d:
        stacked = h.mul_matrix(gens).reshape(d * h.n, h.n)
        rel = _min_module_rows(h, linalg.kernel(stacked, h.p, h.k), d)
        fitt = fitting_ideal(h, rel.reshape(-1, d, h.n), budget=_MINOR_BUDGET)
    else:
        fitt = Ideal.from_basis(h, np.eye(h.n, dtype=np.int64))
    fitt_ok = tail.contains_ideal(fitt)
    cot = cotangent_length(h, t.I, lam)
    bound_ok = cot >= t.r
    if ann_ok and not (fitt_ok and bound_ok):
        raise InvariantViolation(f"cotangent bound replay failed on {t.label}")
    return {
        "label": t.label,
        "annihilator_vanishes": ann_ok,
        "fitting_vanishes": fitt_ok,
        "cotangent_length": cot,
        "bound": t.r,
        "bound_met": bound_ok,
    }


# ---- corpus ----------------------------------------------------------

_CORPUS_SPECS = (
    # (p, e, trunc, r, h-spec); truncation shrinks with the h-rank to keep
    # the glued ring small, always leaving 4r <= N
    (5, 1, 16, 1, {"kind": "plane"}),
    (5, 1, 16, 2, {"kind": "plane"}),
    (5, 1, 16, 3, {"kind": "plane"}),
    (7, 1, 16, 1, {"kind": "plane"}),
    (7, 1, 16, 2, {"kind": "plane"}),
    (7, 1, 16, 3, {"kind": "plane"}),
    (3, 1, 16, 1, {"kind": "plane"}),
    (3, 1, 16, 2, {"kind": "plane"}),
    (3, 1, 16, 3, {"kind": "plane"}),
    (5, 2, 8, 1, {"kind": "plane"}),
    (5, 1, 16, 1, {"kind": "axes", "s": 2}),
    (3, 1, 16, 1, {"kind": "axes", "s": 2}),
    (5, 1, 10, 1, {"kind": "axes", "s": 3}),
    (3, 1, 10, 1, {"kind": "axes", "s": 3}),
    (7, 1, 10, 1, {"kind": "axes", "s": 3}),
    (5, 1, 8, 1, {"kind": "axes", "s": 4}),
    (3, 1, 8, 1, {"kind": "axes", "s": 4}),
    (5, 1, 16, 1, {"kind": "branch", "m": 2}),
    (5, 1, 16, 1, {"kind": "branch", "m": 3}),
    (5, 1, 16, 2, {"kind": "branch", "m": 2}),
    (5, 1, 16, 2, {"kind": "branch", "m": 3}),
    (5, 1, 16, 3, {"kind": "branch", "m": 3}),
    (7, 1, 16, 1, {"kind": "branch", "m": 2}),
)


def tower_corpus() -> list[EisensteinTower]:
    """Deterministic tower collection covering the condition table.

    Plane gluings (all conditions hold) against branch and axis levels
    (all conditions fail), Gorenstein and non-Gorenstein h, three
    residue characteristics and one residue extension.  Labels are
    unique; ordering is the construction order.
    """
    cache: dict[tuple, DvrModel] = {}
    out = []
    for p, e, trunc, r, spec in _CORPUS_SPECS:
        lam = cache.setdefault((p, e, trunc), DvrModel(p, e, trunc))
        out.append(build_eisenstein_tower(lam, r, dict(spec)))
    labels = [t.label for t in out]
    if len(set(labels)) != len(labels):
        raise InvariantViolation("tower corpus labels collide")
    return out
