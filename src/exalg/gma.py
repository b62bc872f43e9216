"""Cayley-Hamilton quotients and generalized matrix algebra coordinates.

`ch_quotient` kills the two-sided ideal generated by the polarized
Cayley-Hamilton elements

    ch(x, y) = xy + yx - t(x) y - t(y) x + (t(x) t(y) - t(xy)) 1,

which is bilinear, so one pass over basis pairs generates the whole ideal
and a second pass over the quotient must be a fixed point.  In the quotient
every element satisfies its own characteristic polynomial.

The trace has to vanish on that ideal before it can descend.  The pairwise
trace laws do force that (the identity-element instances close the gap,
since 2 is a unit here), but the construction re-checks it anyway and
refuses loudly rather than silently producing a traceless quotient.

`ch_quotient` kills the Cayley-Hamilton generators together with any
extra rows of A[G] it is given.  `ch_base_change` along a surjective
f: A -> B = A/I is a quotient of the algebra E already built, since
CH(psi (x) B) = E/(I E): B[G] is A[G]/(I A[G]) and the trace of psi (x) B
is t followed by f, so ch_B(x mod I, y mod I) is the image of ch(x, y).
As ch is bilinear and the basis of A[G] spans B[G], the Cayley-Hamilton
ideal of psi (x) B is the image of that of psi, and B[G] modulo it is
A[G] modulo I A[G] plus that ideal, which is E/(I E).  The trace descends,
as t(i x) = i t(x) lies in I; I E is the two-sided ideal of the central
ker(f) 1, and extra rows add theirs.  The quotient keeps the coordinates
`ch_quotient` would give it over B[G], the Smith coordinates of the
kernel of (g, b) -> rho(g) b, so its coordinates, and the residual
idempotents enumerated in them, do not depend on the algebra it was cut
from.  The residual and the ordinary quotients are built that way, and
every ChAlgebra goes through `_ch_algebra` and its checks.

The Cayley-Hamilton identity and the group law descend, so `_ch_algebra`
does not check them again.  Every ChAlgebra is the image of its source
under `quot.proj`, a unital homomorphism that the quotient builder
checked and that is onto, and the trace vanishes on the killed rows
(`_killed_rows`), so the trace of proj(x) is the trace of x, read in the
new base.  Then ch'(proj x, proj y) = proj(ch(x, y)), which is 0 in both
builders: in `ch_quotient` every ch(e_i, e_j) is a killed generator, and
in `ch_base_change` the source satisfies the identity and ker(f) 1 is
killed, so the B-scalars of the quotient are the images of the A-scalars
of the source.  As ch' is bilinear, it vanishes on all of the quotient.
The group images are proj(rho), and they multiply as rho does, in A[G] or
in the source.  The general setting is Bellaiche and Chenevier,
Asterisque 324 (2009), ch. 1; the tests run the dropped check
(`oracles.verify_ch`) on every ChAlgebra they build.

The residual point of a quotient over a local base is derived once per
algebra, on first use (`ChAlgebra.residual`): the residue field, the
residual quotient E/mE with its projection from E, and the residual
split, whose case (irreducible, coincident, split or matrix residual)
every consumer reads; over a field base it is E itself (`Residual`).
With distinct residual characters (or a matrix residual) a pair of
complementary trace-1 idempotents lifts from the residual quotient by
Newton iteration, and the Peirce pieces turn the
algebra into a 2x2 generalized matrix algebra over the base: two scalar
corners, two pairing modules B and C, and the reducibility ideal
generated by the pairing values.

One stacked check, `_check_gma_stack`, is the GMA structure check: for
one idempotent, or for every candidate of the ordinarity decision at once.
`gma_decompose` reads a GmaAlgebra off one of its rows, for a ChAlgebra
or for the trace forms of any algebra with a trace.  With e1 = e,
e2 = 1 - e and phi_i(x) = t(e_i x e_i) it checks, in spanning-set form:

- e^2 = e, t(e1) = t(e2) = 1 and e1 e2 = e2 e1 = 0;
- the corner rule e_i x e_i = phi_i(x) e_i on basis x, which says that
  corner i is A e_i, free of rank one: t(a e_i) = a, so a -> a e_i is
  injective with inverse phi_i, the corner coordinate;
- phi1(e1 x e2 y e1) = phi2(e2 y e1 x e2) on basis pairs: the e1 x e2
  span B, the e2 y e1 span C and the pairing m(b, c) = phi1(b c) = t(b c)
  is bilinear, so it is the same seen from either corner;
- the projectors x -> e_i x e_j are idempotent, pairwise orthogonal and sum
  to 1, so E is the direct sum of the four Peirce pieces, and with the
  corner rule the sum is the reassembly x = phi1(x) e1 + x12 + x21 + phi2(x) e2;
- phi1(x) phi2(x) - phi1(e1 x e2 x e1) = d(x) on basis x, the determinant
  in corner coordinates, and phi1 + phi2 = t.

B and C are the Howell forms of the rows e1 x e2 and e2 x e1.

Modulo the reducibility ideal I of the pairing values the corners are
the two characters, so `reducibility_ideal` writes them down (Bellaiche
and Chenevier, 1.5.1).  As e1 x y e1 = e1 x e1 y e1 + e1 x e2 y e1,

    phi1(xy) = phi1(x) phi1(y) + m(x12, y21),  likewise for phi2, and
    d(x) = phi1(x) phi2(x) - m(x12, x21)       (the determinant check),

so chi_i = phi_i . rho mod I is multiplicative with chi_i(1) = t(e_i) = 1,
hence unit-valued, chi1 + chi2 = t and chi1 chi2 = d.  The pair is
unordered: 1 - e1 serves as well as e1 and swaps the corners.  As a set it
is determined once the residual characters differ: a pair with chi1' =
chi1 residually has (chi1 - chi1')(chi1 - chi2') = chi1^2 - t chi1 + d = 0,
the second factor is a unit off the proper subgroup where the residual
characters agree, and that complement generates the group.  The tests
check the pair against a root search (`oracles.split_as_characters`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebras import AssocAlgebra, _presented_quotient, quotient_algebra, two_sided_ideal_rows
from .errors import BudgetExceeded, InputError, InvariantViolation
from .groups import GroupChar
from .psrep import Pseudorep2, TraceForms, extended_forms, psrep_base_change, residual_split
from .rings import FiniteRing, Ideal, QuotientRing, RingMap, _smith_coordinates, quotient_ring

__all__ = [
    "ChAlgebra",
    "ch_quotient",
    "ch_base_change",
    "lift_idempotents",
    "GmaAlgebra",
    "gma_decompose",
    "reducibility_ideal",
]

# most Newton steps `_newton_lift` takes before it gives up
_NEWTON_MAX_ITER = 64


@dataclass(eq=False)
class ChAlgebra(TraceForms):
    """A[G] modulo the Cayley-Hamilton ideal, with the descended trace over
    psr.ring; `quot` projects onto it from A[G], or from the algebra
    `ch_base_change` cut it from."""

    psr: Pseudorep2
    quot: QuotientRing
    rho_mat: np.ndarray  # (m, nbar), group images in the quotient

    @property
    def nbar(self) -> int:
        return self.algebra.n

    def rho(self, g: int) -> np.ndarray:
        return self.rho_mat[g]

    @cached_property
    def residual(self) -> "Residual":
        """This algebra at the residue field of its local base, built on first
        use: `ch_base_change` along the residue map, so the residual algebra
        is E/mE and its `quot` projects from this algebra; over a field, E
        itself through identity quotients (`Residual`)."""
        if self.base.maximal_ideal().is_zero():
            field = QuotientRing(self.base, RingMap.identity(self.base), np.eye(self.base.n, dtype=np.int64))
            same = QuotientRing(self.algebra, RingMap.identity(self.algebra), np.eye(self.nbar, dtype=np.int64))
            down = _ch_algebra(self.psr, same, self.t_matrix, self.rho_mat)
        else:
            field = self.base.residue_field()
            down, _ = ch_base_change(self, field.proj, name=f"{self.algebra.name} res")
        return Residual(field, down, residual_split(down.psr))

    def __repr__(self):
        return f"<ChAlgebra dim {self.nbar} over {self.base.name} for {self.psr.name}>"


def ch_quotient(psr: Pseudorep2, name: str | None = None, extra=None) -> ChAlgebra:
    """A[G] modulo the Cayley-Hamilton ideal and, when given, the two-sided
    ideal of the rows `extra` of A[G]."""
    forms = extended_forms(psr)
    E = forms.algebra
    eye = np.eye(E.n, dtype=np.int64)
    # ch(e_i, e_j) for i <= j, row-major, as one stack
    left, right = np.triu_indices(E.n)
    gens = forms.ch_el(eye[left], eye[right])
    if extra is not None:
        gens = np.vstack([gens, np.reshape(extra, (-1 if E.n else 0, E.n))])
    rows = _killed_rows(E, gens, forms.t_matrix, psr.ring, "Cayley-Hamilton" if extra is None else "imposed")
    quot = quotient_algebra(E, rows, name=name or f"CH({psr.name})")
    # group element g is the basis row (g, 1) of A[G]
    return _ch_algebra(psr, quot, forms.t_matrix, np.kron(np.eye(psr.group.m, dtype=np.int64), psr.ring.one))


def ch_base_change(ch: ChAlgebra, f: RingMap, name: str | None = None, extra=None):
    """(ChAlgebra over B, connect): ch modulo the two-sided ideal of ker(f) 1
    and the rows `extra` (coordinates of ch), over the target B of a
    surjective f, with connect the projection from ch (module docstring).

    Base element b is the class of any preimage of b and the trace is t
    followed by f.  The coordinates are the Smith coordinates of the kernel
    of beta: B[G] -> ch, (g, b) -> rho(g) b, and the section of the
    projection is its Howell solve.
    """
    if f.src is not ch.base:
        raise InputError("base change map must start at the coefficient ring")
    b, al = f.dst, ch.algebra
    section, onto = linalg.FactoredSpan.factor(f.matrix, b.p, b.k, ncols=b.n).solve(np.eye(b.n, dtype=np.int64))
    if not onto.all():
        raise InputError("base change map must be surjective")
    # ker(f) 1 is central, so its two-sided ideal is ker(f) E
    gens = f.kernel_ideal().basis @ al.base_embed
    if extra is not None:
        gens = np.vstack([gens, np.reshape(extra, (-1 if al.n else 0, al.n))])
    t_matrix = (ch.t_matrix @ f.matrix) % b.char
    rows = _killed_rows(al, gens, t_matrix, b, "imposed")
    base_rows, n_bg = (section @ al.base_embed) % al.char, ch.psr.group.m * b.n
    beta = al.mul_outer(ch.rho_mat, base_rows).reshape(n_bg, al.n)
    stack = linalg.FactoredSpan.factor(np.vstack([beta, rows]), al.p, al.k, ncols=al.n)
    x, _ = stack.solve(np.eye(al.n, dtype=np.int64))  # beta spans al modulo rows
    # the B[G] columns of the kernel span its relations, but are no Howell basis
    rel = linalg.howell_form(stack.kernel[:, :n_bg] % b.char, b.p, b.k, ncols=n_bg)
    new_k, proj_bg, _ = _smith_coordinates(b.p, b.k, n_bg, rel)
    proj = (x[:, :n_bg] @ proj_bg) % b.p**new_k
    eye = np.eye(proj.shape[1], dtype=np.int64)
    lift, _ = linalg.FactoredSpan.factor(proj, b.p, new_k, ncols=len(eye)).solve(eye)
    quot = _presented_quotient(al, b, base_rows, new_k, proj, lift, name or f"CH({ch.psr.name})")
    return _ch_algebra(psrep_base_change(ch.psr, f), quot, t_matrix, ch.rho_mat), quot.proj.matrix


def _killed_rows(al: AssocAlgebra, gens, t_matrix, b: FiniteRing, what: str) -> np.ndarray:
    """Howell basis of the two-sided ideal of `gens`; the trace `t_matrix`
    (read in b) must vanish on it, or it cannot descend."""
    rows = two_sided_ideal_rows(al, gens)
    if rows.shape[0] and ((rows @ t_matrix) % b.char).any():
        raise InvariantViolation(f"trace does not vanish on the {what} ideal")
    return rows


def _ch_algebra(psr: Pseudorep2, quot: QuotientRing, t_matrix, rho) -> ChAlgebra:
    """The one builder of a ChAlgebra over psr.ring, from the quotient
    `quot`, the trace `t_matrix` on its source and the group images `rho`
    there: the characteristic and the base must survive, and the quotient
    must keep the traces of psr.  The Cayley-Hamilton identity and the
    group law are not checked again: they descend along the checked
    projection (module docstring)."""
    b, ebar = psr.ring, quot.ring
    if ebar.char != b.char:
        # t(1) = 2 is a unit, so the image of 1 keeps full additive order;
        # a characteristic drop would contradict the vanishing check
        raise InvariantViolation("Cayley-Hamilton quotient dropped the characteristic")
    if ebar.n and linalg.kernel(ebar.base_embed, ebar.p, ebar.k).shape[0]:
        raise InvariantViolation("base does not embed into the quotient")
    rho = (rho @ quot.proj.matrix) % ebar.char
    ch = ChAlgebra(algebra=ebar, base=b, t_matrix=(quot.lift_matrix @ t_matrix) % b.char, psr=psr, quot=quot,
                   rho_mat=rho)
    if not np.array_equal((rho @ ch.t_matrix) % b.char, psr.t):
        raise InvariantViolation("trace of a group image changed in the quotient")
    return ch


# ---- the residual point and idempotent lifting ----------------------


@dataclass(eq=False)
class Residual:
    """A ChAlgebra at the residue field of its local base.

    `field` is the residue-field quotient of the base, `ch` the residual
    ChAlgebra that `ch_base_change` builds, whose `quot` is the projection
    from the algebra above and a section of it, and `split` the
    `residual_split` report of the residual trace, whose `case` is what
    every consumer branches on.

    Over a field k, E (x) k = E (Bellaiche and Chenevier, Asterisque 324,
    1.4): `field` and `ch.quot` are identity quotients and `ch` keeps E's
    arrays, which `ch_base_change` along the identity also gives, as its
    relations have a canonical Howell basis and `_smith_coordinates` is
    deterministic (checked on every test-built one, `tests/conftest.py`).
    """

    field: QuotientRing
    ch: ChAlgebra
    split: dict

    @cached_property
    def idempotents(self) -> list[np.ndarray]:
        """`_trace_one_idempotents` of `ch`, enumerated once; each caller checks its own budget."""
        return _trace_one_idempotents(self.ch)


def _trace_one_idempotents(ch: ChAlgebra) -> list[np.ndarray]:
    """Every trace-1 idempotent, sorted; none is 0 (trace 0) or 1 (trace 2)."""
    al, one = ch.algebra, ch.base.one
    out = []
    for xs in al.element_blocks(limit=None):
        out.extend(xs[(al.mul(xs, xs) == xs).all(axis=1) & (ch.t_el(xs) == one).all(axis=1)])
    return out


def _residual_targets(res: Residual, chis, budget: int) -> tuple[list, str]:
    """(targets, reason): the residual trace-1 idempotents to lift, in order.

    Coincident residual characters leave nothing to separate.  Two distinct
    characters give, for each residual character in `chis`, the first
    idempotent whose corner 1 sees the group images through it.  Any other
    residual is a matrix residual and gives every trace-1 idempotent.
    `reason` says why there is nothing to lift, and is "" otherwise.
    """
    case = res.split["case"]
    if case == "coincident":
        return [], "residual characters coincide; no idempotent separates them"
    if res.ch.algebra.size > budget:
        raise BudgetExceeded(f"ring has {res.ch.algebra.size} elements, limit {budget}")
    idems = res.idempotents
    if case != "split":
        return idems, "" if idems else "residual algebra has no nontrivial trace-1 idempotent"
    al, rho = res.ch.algebra, res.ch.rho_mat

    def sees(e, chi) -> bool:  # corner 1 sees every group image through chi
        values = al.scalar(np.array([chi(g) for g in range(len(rho))]))
        return np.array_equal(al.mul(al.mul(e, rho), e), al.mul(values, e))

    targets = [next((e for e in idems if sees(e, chi)), None) for chi in chis]
    if any(e is None for e in targets):
        raise InvariantViolation("no residual idempotent matches the split characters")
    return targets, ""


def lift_idempotents(ch: ChAlgebra, budget: int) -> np.ndarray:
    """A trace-1 idempotent e1 of the quotient, its partner e2 = 1 - e1.

    Works over a local base.  The residual algebra either splits as two
    characters or is a matrix residual; in both cases a trace-1 idempotent
    is found there (the first residual character's, or the first of a
    matrix residual) and lifted with the Newton step e <- 3e^2 - 2e^3.  The
    partner 1 - e1 is then idempotent and orthogonal for free, and
    `gma_decompose` checks the unit traces of both.  Equal residual
    characters, or a zero algebra, leave nothing to lift: InputError.
    """
    if not ch.base.is_local:
        raise InputError("idempotent lifting expects a local base")
    if ch.nbar == 0:
        reason = "algebra collapsed to zero"
    else:
        res = ch.residual
        chis = res.split["chars"][:1] if res.split["case"] == "split" else None
        targets, reason = _residual_targets(res, chis, budget)
    if reason:
        raise InputError(f"idempotent lifting unsupported: {reason}")
    return _newton_lift(ch, targets[0])[0]


def _newton_lift(ch: ChAlgebra, targets):
    """(e, iterations): the section of the residual projection applied to
    each residual idempotent in `targets` (one row, or a stack of rows), refined
    by e <- 3e^2 - 2e^3 until idempotent and checked to stay in the class of
    its target.  Only the rows not yet idempotent take a step, each with its
    own count; a converged row is a fixed point of the step, so every row of
    a stack ends bit-identical to its single lift."""
    al, down = ch.algebra, ch.residual.ch
    want = np.atleast_2d(targets)
    # the section is the Howell solve of the projection over a field, so
    # this is that solve's preimage of each target
    x = (want @ down.quot.lift_matrix) % down.algebra.char
    iters = np.zeros(len(x), dtype=np.int64)
    while (live := (al.mul(x, x) != x).any(axis=1)).any():
        x2 = al.mul(x[live], x[live])
        x[live] = al.sub(al.smul(3, x2), al.smul(2, al.mul(x2, x[live])))
        iters += live
        if iters.max() > _NEWTON_MAX_ITER:
            raise InvariantViolation("idempotent iteration failed to converge")
    if not np.array_equal((x @ down.quot.proj.matrix) % down.algebra.char, want):
        raise InvariantViolation("lifted idempotent drifted from its residual class")
    return (x[0], int(iters[0])) if np.ndim(targets) == 1 else (x, iters)


# ---- generalized matrix algebra coordinates -------------------------


@dataclass(eq=False)
class GmaAlgebra:
    """Peirce data for a fixed pair of complementary idempotents.

    `ch` is set for instances coming out of a Cayley-Hamilton quotient and
    None for hand-built pairing instances, which carry no group.
    """

    algebra: AssocAlgebra
    ch: ChAlgebra | None
    e1: np.ndarray  # e2 = 1 - e1
    phi1: np.ndarray  # (n, base.n), corner-1 scalar coordinate
    phi2: np.ndarray
    b_basis: np.ndarray  # Howell basis of e1 E e2, rows in algebra coordinates
    c_basis: np.ndarray  # Howell basis of e2 E e1
    m_table: np.ndarray  # (nb, nc, base.n), pairing values of the basis rows

    @property
    def base(self) -> FiniteRing:
        return self.algebra.base

    def phi1_of(self, x) -> np.ndarray:
        return (np.asarray(x) @ self.phi1) % self.base.char

    def __repr__(self):
        a = self.base
        nb = linalg.span_log_size(self.b_basis, a.p, a.k)
        nc = linalg.span_log_size(self.c_basis, a.p, a.k)
        return f"<GMA over {a.name}: B log size {nb}, C log size {nc}>"


def gma_decompose(ch: TraceForms, e1: np.ndarray) -> GmaAlgebra:
    """The GMA structure for the idempotent e1 and e2 = 1 - e1, read off
    one checked `_check_gma_stack` row: phi its corner coordinates, B and C
    the Howell forms of its Peirce projectors x -> e1 x e2 and x -> e2 x e1,
    and m(b, c) = t(b c).

    `ch` is a ChAlgebra, or the trace forms of an algebra that carries no
    group, such as a hand-built pairing algebra, which give a GmaAlgebra
    whose `ch` is None.
    """
    if ch.algebra.n == 0:
        raise InputError("cannot decompose the zero algebra")
    return _read_gma(ch, *(part[0] for part in _check_gma_stack(ch, [e1])))


def _read_gma(forms: TraceForms, e12, phi, peirce) -> GmaAlgebra:
    """The GmaAlgebra of one row (e12, phi, peirce) that `_check_gma_stack`
    returned, so checked."""
    al, a = forms.algebra, forms.base
    b_basis, c_basis = (linalg.howell_form(pp, a.p, a.k, ncols=al.n) for pp in (peirce[0, 1], peirce[1, 0]))
    m_table = forms.t_el(al.mul_outer(b_basis, c_basis))
    return GmaAlgebra(al, forms if isinstance(forms, ChAlgebra) else None, e12[0], *phi, b_basis, c_basis, m_table)


def _check_gma_stack(forms: TraceForms, es):
    """(e12, phi, peirce): the GMA structure checks for every row e of `es`
    on one stack, with e1 = e, e2 = 1 - e and phi_i(x) = t(e_i x e_i),
    raising at the first failing row; e12[:, i] is e_i, phi[:, i] the
    (n, base.n) matrix of phi_i and row x of peirce[:, i, j] is e_i x e_j.
    Why these spanning-set forms are the structure is argued in the module
    docstring.
    """
    al, a, c = forms.algebra, forms.base, forms.algebra.char
    es = np.asarray(es, dtype=np.int64) % c
    e12 = np.stack([es, al.sub(al.one, es)], axis=1)  # (N, 2, n)
    e1, e2, eye = e12[:, 0], e12[:, 1], np.eye(al.n, dtype=np.int64)
    # y @ lm[:, i] = e_i y and y @ rm[:, j] = y e_j
    lm, rm = al.mul_matrix(e12), al.right_mul_matrix(e12)
    peirce = (lm[:, :, None] @ rm[:, None]) % c
    corners = peirce[:, [0, 1], [0, 1]]
    phi = (corners @ forms.t_matrix) % a.char  # (N, 2, n, base.n)
    bs, cs = peirce[:, 0, 1], peirce[:, 1, 0]  # rows e1 x e2 spanning B, rows e2 y e1 spanning C
    pair1 = ((cs[:, None] @ al.mul_matrix(bs)) % c @ phi[:, 0, None]) % a.char  # [x, y]: phi1(b_x c_y)
    pair2 = ((bs[:, None] @ al.mul_matrix(cs)) % c @ phi[:, 1, None]) % a.char  # [y, x]: phi2(c_y b_x)
    q = peirce.reshape(len(e12), 4, al.n, al.n)
    compose = (q[:, :, None] @ q[:, None]) % c  # [i, j]: projector j after projector i
    det = (a.mul(phi[:, 0], phi[:, 1]) - pair1[:, range(al.n), range(al.n)]) % a.char

    def rows(ok):
        return ok.reshape(len(e12), -1).all(axis=1)

    _raise_first([
        (rows(al.mul(e1, e1) == e1), "e1 is not idempotent", InputError),
        (rows(forms.t_el(e12) == a.one), "corner idempotent must have unit trace"),
        (rows((al.mul(e1, e2) == 0) & (al.mul(e2, e1) == 0)), "complementary idempotents are not orthogonal"),
        (rows(corners == al.mul(al.scalar(phi), e12[:, :, None])), "corner does not reduce to base scalars"),
        (rows(pair1 == pair2.transpose(0, 2, 1, 3)), "pairing is not symmetric across the corners"),
        (rows(compose == np.eye(4, dtype=bool)[:, :, None, None] * q[:, :, None]) & rows(q.sum(axis=1) % c == eye),
         "Peirce pieces do not fill the algebra"),
        (rows(det == forms.d_el(eye)), "corner determinant disagrees with the descended one"),
        (rows((phi[:, 0] + phi[:, 1]) % a.char == forms.t_matrix % a.char),
         "trace does not split as the sum of the corners"),
    ])
    return e12, phi, peirce


def _raise_first(checks) -> None:
    """Raise at the first row where one of `checks`, (ok-per-row, message)
    pairs, fails, with the message of the first check failing there; a
    message may name the row with "{}", and a third entry replaces the
    InvariantViolation raised."""
    bad = ~np.logical_and.reduce([ok for ok, *_ in checks])
    if bad.any():
        row = int(np.argmax(bad))
        _, msg, *error = next(check for check in checks if not check[0][row])
        raise (error or [InvariantViolation])[0](msg.format(row))


# ---- reducibility ---------------------------------------------------


def reducibility_ideal(gma: GmaAlgebra, *_) -> dict:
    """The ideal I of the pairing values, A/I, and for a pseudorep-backed
    GMA the split there: the corner characters proj . phi_i . rho (module
    docstring), none over the zero ring.  Nothing is enumerated, so a
    trailing budget argument, which the replaced root search took, is ignored."""
    a = gma.base
    ideal = Ideal(a, gma.m_table.reshape(-1, a.n))
    q = quotient_ring(a, ideal, name=f"{a.name}/red")
    cert = None
    if gma.ch is not None:
        cert = {"split": True, "trivial": q.ring.n == 0, "chars": None}
        if q.ring.n:
            grp, corners = gma.ch.psr.group, (gma.ch.rho_mat @ np.stack([gma.phi1, gma.phi2])) % a.char
            cert["chars"] = tuple(GroupChar(grp, q.ring, dict(enumerate(q.proj(values))), name=f"chi{i + 1}")
                                  for i, values in enumerate(corners))
    return {
        "ideal": ideal,
        "quotient": q,
        "certificate": cert,
    }
