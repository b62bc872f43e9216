"""Ordinarity at the marked decomposition subgroup, and the ordinary quotient.

A GMA structure on a Cayley-Hamilton quotient E is *ordinary* for a
character kappa when the group images are upper triangular along the
decomposition subgroup (the 12-coordinate dies on Dp) and the 11-corner
restricted to the inertia subgroup is kappa^-1.  `_relation_stack` builds
the generators of those relations straight from e = e1.  By the corner
rule the Ip generator e rho(g) e - kappa^-1(g) e is a e1 with
a = phi1(rho(g)) - kappa^-1(g), so each relation holds exactly when its
generator is zero.  The generators span the two-sided ideal J*, and the
base ideal J_R that the relations force is generated by t(J*) and d(J*).
It is derived one way, `_trace_rows`, as generated by the traces t(g e_j)
for every generator g and every basis element e_j:

- t(ab) = t(ba) on the quotient, since it descends from the law
  t(gh) = t(hg) on group elements.  J* = E G E, and t(x g y) = t(g (y x)),
  so t(J*) = t(G E) as additive groups, and the t(g e_j) span it.
- 2 d(j) = t(j)^2 - t(j^2) with j^2 in J* and 2 a unit, so d(J*) already
  lies in the ideal t(J*) generates.

The decision reads J_R = 0 off those rows; `ordinary_quotient` takes the
ideal they generate and adds the quotient algebra

    E_ord = E / (J* + J_R E)    over    A / J_R,

which again carries a Cayley-Hamilton structure: E/(J_R E) is the
Cayley-Hamilton quotient of psi (x) A/J_R (`gma` module docstring), here
with J* killed as well.  One `gma.ch_base_change` along A -> A/J_R takes
it, with the generators as extra rows: J_R E is the two-sided ideal of
ker(A -> A/J_R) 1, and `_killed_rows` closes the generators together with
it, so J* is closed once.  E_ord's `quot` is the projection from E.  When
J_R is the unit ideal the quotient collapses and no E_ord is built.

A pseudorepresentation is ordinary precisely when J_R = 0 for some
kappa-compatible choice of idempotent, and that is what `_decide`
decides (searching over residual idempotents in the matrix-residual
case).  It checks kappa once and reads the residual the algebra derived
once, as do the corner alignment and the idempotent lift.  It evaluates
its N candidates on one stack: it lifts them together, builds their
relations, reads J_R = 0 off one `_trace_rows` contraction, and checks
their structure with one `gma._check_gma_stack`, the GMA structure check
that `gma_decompose` also reads its one row off; why its spanning-set
forms are the structure is argued in the `gma` module docstring.

Its winner, else its first candidate, is a scenario's one idempotent:
`_decide` returns its checked row with the verdict, and the scenario's
GMA is read off that row (`gma._read_gma`), so a reported R^ord is built
from the GMA the verdict found, and that row is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .gma import (
    ChAlgebra,
    GmaAlgebra,
    Residual,
    _check_gma_stack,
    _newton_lift,
    _residual_targets,
    ch_base_change,
)
from .groups import GroupChar
from .rings import Ideal, QuotientRing, quotient_ring

__all__ = [
    "OrdinaryContext",
    "ordinary_context",
    "is_ordinary_rep",
    "OrdinaryQuotient",
    "ordinary_quotient",
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


def _kappa_inverse_on_inertia(res: Residual, kappa: GroupChar):
    """The test "is `chi`, a map g -> residue-field value, kappa^-1 on the
    inertia marks?", with kappa^-1 projected to the residue field once."""
    ip = res.ch.psr.group.ip
    want = res.field.proj(np.array([kappa.inv_value(g) for g in ip], dtype=np.int64).reshape(len(ip), -1))
    return lambda chi: all(np.array_equal(chi(g), w) for g, w in zip(ip, want))


def _residual_corner_alignment(ch: ChAlgebra, phi1, phi2, kappa: GroupChar) -> str:
    if not ch.base.is_local:
        return "unknown"
    res = ch.residual
    case = res.split["case"]
    if case != "split":
        return "coincident" if case == "coincident" else "nonsplit"
    return _split_corner_alignment(ch, phi1, phi2, _kappa_inverse_on_inertia(res, kappa))


def _split_corner_alignment(ch: ChAlgebra, phi1, phi2, aligned) -> str:
    """The alignment over a split residual, `aligned` the kappa^-1 test."""
    field = ch.residual.field
    # residual corner characters: phi_i(rho(g)) mod the maximal ideal, phi_i an (n, base.n) matrix
    hit1, hit2 = (aligned(lambda g, phi=phi: field.proj((ch.rho(g) @ phi) % ch.base.char)) for phi in (phi1, phi2))
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
    the `_relation_stack` row of gma's e1, rho12(g) = 0 for g in Dp and
    rho11(g) = kappa^-1(g) for g in Ip (module docstring)."""
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
    """E_ord = E/(J* + J_R E) over A/J_R; E_ord is None when J_R is the unit ideal."""

    j_r: Ideal
    base_quot: QuotientRing
    e_ord: ChAlgebra | None
    collapsed: bool

    def __repr__(self):
        tail = "zero" if self.collapsed else f"dim {self.e_ord.nbar} over {self.base_quot.ring.name}"
        return f"<OrdinaryQuotient {tail}>"


def _trace_rows(ch: ChAlgebra, gens) -> np.ndarray:
    """(N, R n, base.n): for each of the N stacks of R J* generators in
    `gens`, as `_relation_stack` gives them, the traces t(g e_j) over its
    generators g and the basis elements e_j, which generate its J_R (module
    docstring); one contraction over all N."""
    n, b = ch.algebra.n, ch.base
    # row j of mul_matrix(g) is g e_j
    return ((ch.algebra.mul_matrix(gens) @ ch.t_matrix) % b.char).reshape(len(gens), gens.shape[1] * n, b.n)


def ordinary_quotient(ctx: OrdinaryContext, name: str | None = None) -> OrdinaryQuotient:
    ch = ctx.ch
    al, a = ch.algebra, ch.base
    gens = _relation_stack(ch, ctx.gma.e1[None], ctx.kappa)
    j_r = Ideal(a, _trace_rows(ch, gens)[0])
    collapsed = j_r.is_unit_ideal()
    base_quot = quotient_ring(a, j_r, name=f"{a.name}/JR")
    # J* is closed once, with ker(A -> A/J_R) 1; the trace must die on it,
    # or J_R was not saturated and the base change refuses
    e_ord = None if collapsed else ch_base_change(ch, base_quot.proj, name or f"{al.name} ord", gens[0])[0]
    return OrdinaryQuotient(j_r, base_quot, e_ord, collapsed)


# ---- deciding ordinarity for a pseudorepresentation ------------------


def _decide(ch: ChAlgebra, kappa: GroupChar, budget: int):
    """(result, row): does the Cayley-Hamilton quotient admit an ordinary
    GMA structure?  `row` is the row (e12, phi, peirce) of the stacked
    check for the winning candidate, else for the first candidate tried,
    from which `gma._read_gma` reads its GmaAlgebra; None when the
    decision lifts no candidate.

    True iff J_R = 0 for some choice of trace-1 idempotent whose corner is
    kappa-compatible.  With a split residual the candidates are the lifts
    aligned to the residual characters matching kappa^-1 on inertia; with
    a matrix residual every residual trace-1 idempotent is lifted and
    tried.  Irreducible residual characteristic polynomials would need a
    field extension and are reported unsupported, as are coincident
    residual characters.  Kappa is checked once, before its first use.

    All candidates are lifted as one stack and J_R = 0 is read for each
    with one contraction, t(g e_j) = 0 for every generator g of
    `_relation_stack` and basis element e_j (`_trace_rows`).  The first row
    with J_R = 0 wins, as in a loop over the candidates; every row up to it
    passes one stacked structure check, the corner rule
    e_i x e_i = t(e_i x e_i) e_i and the other spanning-set forms of the
    `gma` module docstring, and the witness alignment is read off the
    winner's corner coordinates there.
    """
    if not ch.base.is_local or ch.base.n == 0:
        raise InputError("ordinarity decision expects a local base")
    _check_kappa(ch, kappa)
    res = ch.residual
    case = res.split["case"]
    if case == "irreducible":
        return {"supported": False, "ordinary": None, "reason": res.split["reason"], "checked": 0}, None
    chis = None
    if case == "split":
        aligned = _kappa_inverse_on_inertia(res, kappa)  # kappa^-1 projected once per decision
        chis = [chi for chi in res.split["chars"] if aligned(chi)]
        if not chis:
            reason = "no residual character matches kappa^-1 on inertia"
            return {"supported": True, "ordinary": False, "reason": reason, "checked": 0}, None
    targets, reason = _residual_targets(res, chis, budget)
    if reason:
        return {"supported": False, "ordinary": None, "reason": reason, "checked": 0}, None
    es, _ = _newton_lift(ch, targets)
    zero = ~_trace_rows(ch, _relation_stack(ch, es, kappa)).any(axis=(1, 2))
    # as in a loop over the candidates: the first row with J_R = 0 wins, and the rows up to it are checked
    hit = int(np.argmax(zero)) if zero.any() else None
    e12, phi, peirce = _check_gma_stack(ch, es if hit is None else es[: hit + 1])
    i = 0 if hit is None else hit
    row = e12[i], phi[i], peirce[i]
    if hit is not None:
        return {
            "supported": True,
            "ordinary": True,
            "reason": "",
            # a split residual counts its aligned characters, tried or not
            "checked": hit + 1 if chis is None else len(targets),
            "witness": {
                "e1": [int(c) for c in es[hit]],
                "alignment": "nonsplit" if chis is None else _split_corner_alignment(ch, *phi[hit], aligned),
            },
        }, row
    if chis is None:
        reason = "ordinary base ideal is nonzero for every residual corner"
    else:
        reason = "ordinary base ideal is nonzero for every aligned corner"
    return {"supported": True, "ordinary": False, "reason": reason, "checked": len(targets)}, row
