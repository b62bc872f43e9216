"""Ordinarity at the marked decomposition subgroup, and the ordinary quotient.

A GMA structure on a Cayley-Hamilton quotient is *ordinary* for a character
kappa when the group images are upper triangular along the decomposition
subgroup (the 12-coordinate dies on Dp) and the 11-corner restricted to the
inertia subgroup is kappa^-1.  `_relations` walks those relations once
for every consumer; `_base_ideal` turns them into the two-sided ideal J*
they generate and the base ideal J_R of trace values they force, and
`ordinary_quotient` adds the quotient algebra

    E_ord = E / (J* + J_R E)    over    A / J_R,

which again carries a Cayley-Hamilton structure: E/(J_R E) is the
Cayley-Hamilton quotient of psi (x) A/J_R (`gma` module docstring), here
with J* killed as well.  One `gma.ch_base_change` takes that quotient of
E, and one the reducible E_red; its `connect` map is the projection from
E.  A pseudorepresentation is then ordinary precisely when J_R = 0 for
some kappa-compatible choice of idempotent, and that is what
`is_ordinary_ch` decides (searching over residual idempotents in the
matrix-residual case).  It checks kappa once
and reads the residual the algebra derived once, as do the corner
alignment and the idempotent lift.

The decision evaluates its N candidates on one stack: it lifts them
together, builds their relations straight from e (`_relation_stack`),
reads J_R = 0 off one contraction (`_j_r_zero`), and checks their
structure with one `gma._check_gma_stack`, the GMA structure check that
`gma_decompose` also reads its one row off; why its spanning-set forms
are the structure is argued in the `gma` module docstring.  By its corner
rule the Ip generator e1 rho(g) e1 - kappa^-1(g) e1 is a e1 with
a = phi1(rho(g)) - kappa^-1(g), zero exactly when the relation holds.

Its winner, else its first candidate, is a scenario's one idempotent
(`_decide`), so a reported R^ord is built from the GMA the verdict found.

J_R is generated by the traces of J* alone, and J_R = 0 exactly when
t(g e_j) = 0 for every generator g of `_relations` and every basis
element e_j:

- t(ab) = t(ba) on the quotient, since it descends from the law
  t(gh) = t(hg) on group elements.  J* = E G E, and t(x g y) = t(g (y x)),
  so t(J*) = t(G E) as additive groups.
- J_R is generated by t(J*) and d(J*), and 2 d(j) = t(j)^2 - t(j^2) with
  j^2 in J* and 2 a unit, so d(J*) already lies in the ideal t(J*)
  generates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebras import quotient_algebra, two_sided_ideal_rows
from .errors import InputError, InvariantViolation
from .gma import (
    ChAlgebra,
    GmaAlgebra,
    Residual,
    _check_gma_stack,
    _newton_lift,
    _residual_targets,
    ch_base_change,
    ch_quotient,
)
from .groups import GroupChar
from .psrep import Pseudorep2, psrep_base_change, split_as_characters
from .rings import Ideal, QuotientRing, quotient_ring

__all__ = [
    "OrdinaryContext",
    "ordinary_context",
    "is_ordinary_rep",
    "OrdinaryQuotient",
    "ordinary_quotient",
    "is_ordinary_psrep",
    "is_ordinary_ch",
    "reducible_ordinary_quotient",
]


# ---- contexts --------------------------------------------------------


@dataclass(eq=False)
class OrdinaryContext:
    """A GMA with group coordinates, marks, and a unit character on Dp.

    `kappa_alignment` records which corner residually restricts to
    kappa^-1 on the inertia marks: "corner1", "corner2", "both",
    "neither", or "nonsplit"/"coincident"/"unknown" when the residual
    does not separate.  It is descriptive; the hard conditions are
    checked by `is_ordinary_rep` and `ordinary_quotient`.
    """

    gma: GmaAlgebra
    kappa: GroupChar
    kappa_alignment: str

    @property
    def ch(self) -> ChAlgebra:
        return self.gma.ch

    def __repr__(self):
        grp = self.ch.psr.group
        return f"<OrdinaryContext |Dp|={len(grp.dp)} |Ip|={len(grp.ip)} kappa on {self.kappa_alignment}>"


def _kappa_inverse_on_inertia(res: Residual, kappa: GroupChar, chi) -> bool:
    """Is `chi`, a map g -> residue-field value, kappa^-1 on the inertia marks?"""
    ip = res.ch.psr.group.ip
    want = res.field.proj(np.array([kappa.inv_value(g) for g in ip], dtype=np.int64).reshape(len(ip), -1))
    return all(np.array_equal(chi(g), w) for g, w in zip(ip, want))


def _residual_corner_alignment(ch: ChAlgebra, phi1, phi2, kappa: GroupChar) -> str:
    if not ch.base.is_local:
        return "unknown"
    res = ch.residual
    case = res.split["case"]
    if case != "split":
        return "coincident" if case == "coincident" else "nonsplit"
    # residual corner characters: phi_i(rho(g)) mod the maximal ideal, phi_i an (n, base.n) matrix
    hit1, hit2 = (
        _kappa_inverse_on_inertia(res, kappa, lambda g, phi=phi: res.field.proj((ch.rho(g) @ phi) % ch.base.char))
        for phi in (phi1, phi2)
    )
    if hit1 and hit2:
        return "both"
    if hit1:
        return "corner1"
    if hit2:
        return "corner2"
    return "neither"


def _check_kappa(ch: ChAlgebra | None, kappa: GroupChar) -> None:
    """The group coordinates, marks and kappa that the ordinary relations read."""
    if ch is None:
        raise InputError("ordinarity needs group coordinates")
    grp = ch.psr.group
    if grp.dp is None or grp.ip is None:
        raise InputError("group carries no decomposition/inertia marks")
    if kappa.ring is not ch.base:
        raise InputError("kappa must take values in the base ring")
    if not set(grp.dp) <= set(kappa.domain):
        raise InputError("kappa must be defined on the decomposition subgroup")
    kappa.check()


def ordinary_context(gma: GmaAlgebra, kappa: GroupChar) -> OrdinaryContext:
    _check_kappa(gma.ch, kappa)
    return OrdinaryContext(gma, kappa, _residual_corner_alignment(gma.ch, gma.phi1, gma.phi2, kappa))


def _relation_stack(ch: ChAlgebra, es, kappa: GroupChar) -> np.ndarray:
    """(N, |Dp| + |Ip|, n): the J* generators of the ordinary relations for
    each trace-1 idempotent row e of `es`, Dp first: e rho(g) (1 - e) for g
    in Dp, then e rho(g) e - kappa^-1(g) e for g in Ip."""
    al, grp = ch.algebra, ch.psr.group
    es = np.asarray(es, dtype=np.int64)[:, None]
    kinv = np.array([kappa.inv_value(g) for g in grp.ip], dtype=np.int64).reshape(len(grp.ip), ch.base.n)
    off = al.mul(al.mul(es, ch.rho_mat[list(grp.dp)]), al.sub(al.one, es))
    corner = al.sub(al.mul(al.mul(es, ch.rho_mat[list(grp.ip)]), es), al.mul(al.scalar(kinv), es))
    return np.concatenate([off, corner], axis=1)


def _relations(gma: GmaAlgebra, kappa: GroupChar) -> list:
    """The ordinary relations as (clause, element, J* generator), Dp first:
    the `_relation_stack` row of gma's e1.  rho12(g) = 0 for g in Dp has the
    generator e1 rho(g) e2 and rho11(g) = kappa^-1(g) for g in Ip the
    generator e1 rho(g) e1 - kappa^-1(g) e1; by the corner rule each
    relation holds exactly when its generator is zero."""
    grp = gma.ch.psr.group
    clauses = [("rho12-on-dp", g) for g in grp.dp] + [("rho11-minus-kappa-inv-on-ip", g) for g in grp.ip]
    return [(clause, g, v) for (clause, g), v in zip(clauses, _relation_stack(gma.ch, gma.e1[None], kappa)[0])]


def is_ordinary_rep(ctx: OrdinaryContext) -> dict:
    """Upper triangular on Dp and kappa^-1 on the 11-corner along Ip.

    Returns {"ordinary": bool, "witness": None | dict}; the witness names
    the first relation of `_relations` whose generator is nonzero.
    """
    gma, kappa = ctx.gma, ctx.kappa
    for clause, g, vec in _relations(gma, kappa):
        if not vec.any():
            continue
        witness = {"element": int(g), "name": gma.ch.psr.group.names[g], "coordinate": clause.split("-")[0]}
        if clause == "rho12-on-dp":
            witness["value"] = [int(c) for c in vec]
        else:
            witness["value"] = [int(c) for c in gma.phi1_of(gma.ch.rho(g))]
            witness["expected"] = [int(c) for c in kappa.inv_value(g)]
        return {"ordinary": False, "witness": witness}
    return {"ordinary": True, "witness": None}


# ---- the ordinary quotient ------------------------------------------


@dataclass(eq=False)
class OrdinaryQuotient:
    """E_ord = E/(J* + J_R E) over A/J_R, with the ideals that built it."""

    ctx: OrdinaryContext
    j_star_rows: np.ndarray  # Howell basis of J*, coordinates of ctx.ch.algebra
    j_r: Ideal
    j_rows: np.ndarray  # Howell basis of J* + J_R E
    base_quot: QuotientRing
    e_ord: ChAlgebra | None
    ord_proj: np.ndarray | None  # (ch.nbar, e_ord.nbar), reduce-then-project
    collapsed: bool
    collapse_step: dict | None

    def __repr__(self):
        tail = "zero" if self.collapsed else f"dim {self.e_ord.nbar} over {self.base_quot.ring.name}"
        return f"<OrdinaryQuotient {tail}>"


def _scaled_rows(al, basis) -> np.ndarray:
    """Rows spanning I E, for the ideal I of the base with Howell basis `basis`."""
    return al.amul(basis[:, None], np.eye(al.n, dtype=np.int64)).reshape(-1, al.n)


def _base_ideal(gma: GmaAlgebra, kappa: GroupChar):
    """(J* rows, J_R generators, J_R) of the ordinary relations.

    J* is the two-sided ideal the generators of `_relations` span, as a
    Howell basis; J_R is generated by the trace and determinant of each
    J* row, stacked in that order: generator g is the trace of row g // 2
    when g is even, else its determinant.
    """
    ch = gma.ch
    al, a = ch.algebra, ch.base
    gens = [v for _, _, v in _relations(gma, kappa) if v.any()]
    j_star = two_sided_ideal_rows(al, np.asarray(gens, dtype=np.int64).reshape(-1, al.n))
    jr_gens = np.stack([ch.t_el(j_star), ch.d_el(j_star)], axis=1).reshape(-1, a.n)
    return j_star, jr_gens, Ideal(a, jr_gens)


def _j_r_zero(ch: ChAlgebra, es, kappa: GroupChar) -> np.ndarray:
    """Per trace-1 idempotent row of `es`: is J_R = 0, read as t(g e_j) = 0
    for every generator g of `_relation_stack` and every basis element e_j
    (module docstring), one contraction over the stack?"""
    # row j of mul_matrix(g) is g e_j
    return ~((ch.algebra.mul_matrix(_relation_stack(ch, es, kappa)) @ ch.t_matrix) % ch.base.char).any(axis=(1, 2, 3))


def ordinary_quotient(ctx: OrdinaryContext, name: str | None = None) -> OrdinaryQuotient:
    ch = ctx.ch
    al, a = ch.algebra, ch.base
    j_star, jr_gens, j_r = _base_ideal(ctx.gma, ctx.kappa)
    # J* + J_R E, for the record and for the quotient below
    j_rows = linalg.howell_form(np.vstack([j_star, _scaled_rows(al, j_r.basis)]), al.p, al.k, ncols=al.n)
    collapsed = j_r.is_unit_ideal()
    e_ord = proj_mat = collapse_step = None
    if collapsed:
        hit = next((g for g, v in enumerate(jr_gens) if a.is_unit(v)), None)
        generator = None if hit is None else {
            "kind": ("trace", "determinant")[hit % 2], "row": hit // 2, "value": [int(c) for c in jr_gens[hit]]
        }
        collapse_step = {
            "generator": generator,
            "note": "" if generator else "unit arises only as a combination of generators",
        }
    base_quot = quotient_ring(a, j_r, name=f"{a.name}/JR")
    if not collapsed:
        # the trace must die on J*, or J_R was not saturated and the base change refuses
        e_ord, proj_mat = ch_base_change(ch, base_quot.proj, name or f"{al.name} ord", j_star)
    return OrdinaryQuotient(ctx, j_star, j_r, j_rows, base_quot, e_ord, proj_mat, collapsed, collapse_step)


# ---- deciding ordinarity for a pseudorepresentation ------------------


def _require_decidable(psr: Pseudorep2) -> None:
    if not psr.ring.is_local or psr.ring.n == 0:
        raise InputError("ordinarity decision expects a local base")


def is_ordinary_psrep(psr: Pseudorep2, kappa: GroupChar, budget: int = 400000) -> dict:
    """`is_ordinary_ch` on the Cayley-Hamilton quotient of `psr`."""
    _require_decidable(psr)
    return is_ordinary_ch(ch_quotient(psr), kappa, budget)


def is_ordinary_ch(ch: ChAlgebra, kappa: GroupChar, budget: int = 400000) -> dict:
    """Does the Cayley-Hamilton quotient admit an ordinary GMA structure?

    True iff J_R = 0 for some choice of trace-1 idempotent whose corner is
    kappa-compatible.  With a split residual the candidates are the lifts
    aligned to the residual characters matching kappa^-1 on inertia; with
    a matrix residual every residual trace-1 idempotent is lifted and
    tried.  Irreducible residual characteristic polynomials would need a
    field extension and are reported unsupported, as are coincident
    residual characters.  Kappa is checked once, before its first use.

    All candidates are lifted as one stack and J_R = 0 is read for each
    with one contraction, t(g e_j) = 0 for every generator g of
    `_relation_stack` and basis element e_j (`_j_r_zero`).  The first row
    with J_R = 0 wins, as in a loop over the candidates; every row up to it
    passes one stacked structure check, the corner rule
    e_i x e_i = t(e_i x e_i) e_i and the other spanning-set forms of the
    `gma` module docstring, and the witness alignment is read off the
    winner's corner coordinates there.  No GmaAlgebra is built.
    """
    return _decide(ch, kappa, budget)[0]


def _decide(ch: ChAlgebra, kappa: GroupChar, budget: int):
    """(`is_ordinary_ch` result, e1): e1 is the winning candidate, else the
    first candidate tried, and None when the decision lifts none."""
    _require_decidable(ch.psr)
    _check_kappa(ch, kappa)
    res = ch.residual
    case = res.split["case"]
    if case == "irreducible":
        return {"supported": False, "ordinary": None, "reason": res.split["reason"], "checked": 0}, None
    chis = None
    if case == "split":
        chis = [chi for chi in res.split["chars"] if _kappa_inverse_on_inertia(res, kappa, chi)]
        if not chis:
            reason = "no residual character matches kappa^-1 on inertia"
            return {"supported": True, "ordinary": False, "reason": reason, "checked": 0}, None
    targets, reason = _residual_targets(res, chis, budget)
    if reason:
        return {"supported": False, "ordinary": None, "reason": reason, "checked": 0}, None
    es, _ = _newton_lift(ch, targets)
    zero = _j_r_zero(ch, es, kappa)
    # as in a loop over the candidates: the first row with J_R = 0 wins, and the rows up to it are checked
    hit = int(np.argmax(zero)) if zero.any() else None
    _, phi, _ = _check_gma_stack(ch, es if hit is None else es[: hit + 1])
    if hit is not None:
        return {
            "supported": True,
            "ordinary": True,
            "reason": "",
            # a split residual counts its aligned characters, tried or not
            "checked": hit + 1 if chis is None else len(targets),
            "witness": {
                "e1": [int(c) for c in es[hit]],
                "alignment": _residual_corner_alignment(ch, *phi[hit], kappa),
            },
        }, es[hit]
    if chis is None:
        reason = "ordinary base ideal is nonzero for every residual corner"
    else:
        reason = "ordinary base ideal is nonzero for every aligned corner"
    return {"supported": True, "ordinary": False, "reason": reason, "checked": len(targets)}, es[0]


# ---- the reducible ordinary quotient --------------------------------


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
    e_red, proj_mat = ch_base_change(ch, base_quot.proj, name or f"{al.name} red-ord", extra)
    rank_match = True
    if oq.e_ord is not None:
        # E_red must be E_ord with the reducibility ideal extended, nothing more
        eo = oq.e_ord
        abar = oq.base_quot.ring
        jd_bar = Ideal(abar, oq.base_quot.proj(jd.basis))
        rows = two_sided_ideal_rows(eo.algebra, _scaled_rows(eo.algebra, jd_bar.basis))
        q = quotient_algebra(eo.algebra, rows)
        lhs = q.algebra.k * q.algebra.n
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
