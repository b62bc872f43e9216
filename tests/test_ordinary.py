"""Ordinary contexts, the ordinary quotient, and the tangent counter.

The oracle for the decision procedure is honest linear algebra on actual
2-dimensional representations: a semisimple representation is ordinary
exactly when some choice of ordered eigen-lines makes it upper triangular
along the decomposition marks with kappa^-1 in the corner along inertia,
and that is decided below by enumerating the projective line.  The
decision on trace data must agree with it on every field-valued instance.

The quotient itself is pinned by hand-computed cases: a diagonal pair
aligned with kappa gives the identity quotient, the swapped alignment
collapses the base, and the deformed dihedral family over F5[s]/(s^2)
produces the base ideal (s) under rotation marks.
"""

import sys
import time

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import algebras, gma, groups, linalg, ordinary, psrep, rings, scenarios
from exalg.errors import BudgetExceeded, InputError

F5 = rings.zmod_ring(5, 1)
F7 = rings.zmod_ring(7, 1)
Z25 = rings.zmod_ring(5, 2)
T2 = rings.truncated_poly_ring(F5, 2, name="T2")


# ---- fixtures --------------------------------------------------------


def c4_setup(ip=(0, 2)):
    """kappa^-1 + 1 on the 4-cycle, with kappa(g) = 3."""
    grp = groups.cyclic_group(4).mark(dp=(0, 1, 2, 3), ip=ip)
    kappa = groups.cyclic_char(grp, F5, 1, F5.from_int(3), name="kappa")
    kinv = groups.cyclic_char(grp, F5, 1, F5.from_int(2), name="kinv")
    triv = groups.trivial_char(grp, F5, domain=range(4))
    return psrep.psrep_from_chars(kinv, triv), kappa


def aligned_context(psr, kappa, flip=False):
    """GMA context with e1 on the corner residually matching kappa^-1."""
    ch = gma.ch_quotient(psr)
    resq = psr.ring.residue_field()
    chars = psrep.residual_split(psrep.psrep_base_change(psr, resq.proj))["chars"]
    match = [
        c
        for c in chars
        if all(
            np.array_equal(c(g), resq.proj(kappa.inv_value(g))) for g in psr.group.ip
        )
    ]
    target = match[0] if match else chars[0]
    if flip:
        target = next(c for c in chars if c is not target)
    targets, _ = gma._residual_targets(ch.residual, [target], 400000)
    return ordinary.ordinary_context(gma.gma_decompose(ch, gma._newton_lift(ch, targets[0])[0]), kappa)


def d5_t2_psrep(dp, ip):
    """t(r^j) = 2 + j^2 s deformation of 1 + sign, marked."""
    d5 = groups.dihedral_group(5).mark(dp=dp, ip=ip)
    t = np.zeros((10, 2), dtype=np.int64)
    d = np.zeros((10, 2), dtype=np.int64)
    for j in range(5):
        t[j] = [2, (j * j) % 5]
        d[j] = [1, 0]
        t[5 + j] = [0, 0]
        d[5 + j] = [4, 0]
    return psrep.Pseudorep2(d5, T2, t, d, name="d5t2")


def d5_f5_psrep(dp, ip):
    """1 + sign on the 5-dihedral group over the prime field, marked."""
    d5 = groups.dihedral_group(5).mark(dp=dp, ip=ip)
    t = np.zeros((10, 1), dtype=np.int64)
    d = np.zeros((10, 1), dtype=np.int64)
    for j in range(5):
        t[j], d[j] = 2, 1
        t[5 + j], d[5 + j] = 0, 4
    return psrep.Pseudorep2(d5, F5, t, d, name="d5res")


def d4_rep(dp, ip):
    """Faithful 2-dimensional dihedral-4 representation over F5, marked."""
    grp = groups.dihedral_group(4).mark(dp=dp, ip=ip)
    rot = np.zeros((2, 2, 1), dtype=np.int64)
    rot[0, 1], rot[1, 0] = 4, 1
    ref = np.zeros((2, 2, 1), dtype=np.int64)
    ref[0, 0], ref[1, 1] = 1, 4
    return psrep.MatrixRep2.from_generators(grp, F5, {1: rot, 4: ref}, name="d4std")


def s3_rep(dp, ip):
    """Standard 2-dimensional representation of the 6-element symmetric group."""
    grp = groups.symmetric_3().mark(dp=dp, ip=ip)
    r = np.zeros((2, 2, 1), dtype=np.int64)
    r[0, 1], r[1, 0], r[1, 1] = 6, 1, 6
    s = np.zeros((2, 2, 1), dtype=np.int64)
    s[0, 1], s[1, 0] = 1, 1
    return psrep.MatrixRep2.from_generators(grp, F7, {1: r, 3: s}, name="s3std")


# ---- the representation-level oracle ---------------------------------


def rep_ordinary_oracle(rep, kappa):
    """Enumerate ordered line pairs; True if one triangularizes along the marks.

    The second basis line must be stable under the decomposition subgroup
    (that kills the 12-coordinate) and the 11-coordinate it induces must
    equal kappa^-1 along inertia.
    """
    f, grp = rep.ring, rep.group
    lines = [np.stack([f.one, x]) for x in oracles.elements(f)] + [
        np.stack([f.zero(), f.one])
    ]

    def act(g, v):
        mat = rep.of(g)
        return np.stack(
            [
                f.add(f.mul(mat[0, 0], v[0]), f.mul(mat[0, 1], v[1])),
                f.add(f.mul(mat[1, 0], v[0]), f.mul(mat[1, 1], v[1])),
            ]
        )

    def cross(u, v):
        return f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0]))

    for v2 in lines:
        if any(cross(act(g, v2), v2).any() for g in grp.dp):
            continue
        for v1 in lines:
            det = cross(v1, v2)
            if not f.is_unit(det):
                continue
            inv = f.inv(det)
            if all(
                np.array_equal(f.mul(cross(act(g, v1), v2), inv), kappa.inv_value(g))
                for g in grp.ip
            ):
                return True
    return False


# ---- contexts and the strict condition -------------------------------


def test_aligned_context_is_ordinary():
    psr, kappa = c4_setup()
    ctx = aligned_context(psr, kappa)
    assert ctx.kappa_alignment == "corner1"
    assert ordinary.is_ordinary_rep(ctx) == {"ordinary": True, "witness": None}


def test_swapped_context_fails_on_the_corner():
    psr, kappa = c4_setup()
    ctx = aligned_context(psr, kappa, flip=True)
    assert ctx.kappa_alignment == "corner2"
    out = ordinary.is_ordinary_rep(ctx)
    assert not out["ordinary"]
    w = out["witness"]
    assert w["coordinate"] == "rho11" and w["element"] == 2
    assert w["value"] == [1] and w["expected"] == [4]


def test_offdiagonal_witness_comes_first():
    psr = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, T2, domain=range(5), name="k")
    ctx = aligned_context(psr, kappa)
    out = ordinary.is_ordinary_rep(ctx)
    assert not out["ordinary"]
    assert out["witness"]["coordinate"] == "rho12"
    assert out["witness"]["element"] == 1


def test_relation_walk_matches_the_per_element_relations():
    """The stacked walk gives, relation by relation, the generator that a
    per-element loop over Dp and then Ip computes."""
    psr, kappa = c4_setup()
    d5 = d5_t2_psrep((0, 6), (0,))
    ctxs = [aligned_context(psr, kappa), aligned_context(psr, kappa, flip=True)]
    ctxs.append(aligned_context(d5, groups.trivial_char(d5.group, T2, domain=(0, 6), name="k")))
    for ctx in ctxs:
        gm, ch, al = ctx.gma, ctx.ch, ctx.ch.algebra
        expect = [("rho12-on-dp", g, (ch.rho(g) @ gm.p12) % al.char) for g in ch.psr.group.dp]
        for g in ch.psr.group.ip:
            diff = (gm.phi1_of(ch.rho(g)) - ctx.kappa.inv_value(g)) % ch.base.char
            expect.append(("rho11-minus-kappa-inv-on-ip", g, al.amul(diff, gm.e1)))
        got = ordinary._relations(ctx.gma, ctx.kappa)
        assert [(c, g, v.tolist()) for c, g, v in got] == [(c, g, v.tolist()) for c, g, v in expect]


def _every_candidate(ch):
    """The lifted GMA of every residual trace-1 idempotent the decision could
    try: both residual characters when the residual splits, every trace-1
    idempotent of a matrix residual."""
    res = ch.residual
    case = res.split["case"]
    if case in ("irreducible", "coincident"):
        return []
    chis = res.split["chars"] if case == "split" else None
    targets, _ = gma._residual_targets(res, chis, 400000)
    return [gma.gma_decompose(ch, gma._newton_lift(ch, target)[0]) for target in targets]


def _jr_cases():
    """(psr, kappas) over S3 (F5, F7), C4, D4 and D5 over T2, with several marks."""
    rot = np.zeros((2, 2, 1), dtype=np.int64)
    rot[0, 1], rot[1, 0], rot[1, 1] = 4, 1, 4
    swap = np.zeros((2, 2, 1), dtype=np.int64)
    swap[0, 1], swap[1, 0] = 1, 1
    s3 = groups.symmetric_3().mark(dp=(0, 1, 2), ip=(0, 1, 2))
    s3_f5 = psrep.psi_of_rep(psrep.MatrixRep2.from_generators(s3, F5, {1: rot, 3: swap}))
    yield s3_f5, [groups.trivial_char(s3_f5.group, F5, domain=range(6), name="k")]
    for dp, ip in [((0, 1, 2), (0, 1, 2)), ((0, 3), (0, 3)), ((0, 3), (0,))]:
        psr = psrep.psi_of_rep(s3_rep(dp, ip))
        kappas = [groups.trivial_char(psr.group, F7, domain=range(6), name="k")]
        kappas.append(groups.cyclic_char(psr.group, F7, dp[1], F7.from_int(2 if dp[1] == 1 else 6), name="k2"))
        yield psr, kappas
    for ip in [(0, 2), (0, 1, 2, 3)]:
        psr, kappa = c4_setup(ip)
        yield psr, [kappa, groups.trivial_char(psr.group, F5, domain=range(4), name="k")]
    d4 = psrep.psi_of_rep(d4_rep((0, 1, 2, 3), (0, 1, 2, 3)))
    yield d4, [groups.cyclic_char(d4.group, F5, 1, F5.from_int(3), name="k3")]
    for dp, ip in [(tuple(range(5)), tuple(range(5))), ((0, 6), (0,)), ((0, 5), (0, 5))]:
        d5 = d5_t2_psrep(dp, ip)
        yield d5, [groups.trivial_char(d5.group, T2, domain=dp, name="k")]


def test_trace_contraction_decides_the_base_ideal():
    """For every candidate GMA, J_R = 0 read off t(G E) agrees with the
    J_R that `_base_ideal` builds as an ideal."""
    seen = []
    for psr, kappas in _jr_cases():
        ch = gma.ch_quotient(psr)
        for g in _every_candidate(ch):
            for kappa in kappas:
                want = ordinary._base_ideal(g, kappa)[2].is_zero()
                assert oracles._j_r_is_zero(g, kappa) == want
                seen.append(want)
    assert len(seen) > 300 and 0 < sum(seen) < len(seen)


def test_context_input_errors():
    psr, kappa = c4_setup()
    ag = oracles.abstract_gma(F5, F5.one)
    with pytest.raises(InputError):
        ordinary.ordinary_context(ag, kappa)
    bare = groups.cyclic_group(4)
    unmarked = psrep.psrep_from_chars(
        groups.trivial_char(bare, F5, domain=range(4)),
        groups.cyclic_char(bare, F5, 1, F5.from_int(2)),
    )
    with pytest.raises(InputError):
        ordinary.is_ordinary_psrep(
            unmarked, groups.trivial_char(unmarked.group, F5, domain=range(4))
        )
    ch = gma.ch_quotient(psr)
    res = gma.lift_idempotents(ch)
    g1 = gma.gma_decompose(ch, res["e1"])
    wrong_ring = groups.trivial_char(psr.group, Z25, domain=range(4))
    with pytest.raises(InputError):
        ordinary.ordinary_context(g1, wrong_ring)
    small = groups.trivial_char(psr.group, F5, domain=(0, 2))
    with pytest.raises(InputError):
        ordinary.ordinary_context(g1, small)


# ---- the ordinary quotient -------------------------------------------


def test_ordinary_input_gives_identity_quotient():
    psr, kappa = c4_setup()
    ctx = aligned_context(psr, kappa)
    oq = ordinary.ordinary_quotient(ctx)
    assert oq.j_star_rows.shape[0] == 0
    assert oq.j_r.is_zero() and not oq.collapsed
    ch = ctx.ch
    assert oq.e_ord.nbar == ch.nbar
    assert np.array_equal(oq.ord_proj, np.eye(ch.nbar, dtype=np.int64))
    assert oq.base_quot.ring.n == F5.n and oq.base_quot.ring.char == 5


def test_swapped_input_collapses_with_provenance():
    psr, kappa = c4_setup()
    ctx = aligned_context(psr, kappa, flip=True)
    oq = ordinary.ordinary_quotient(ctx)
    assert oq.collapsed and oq.e_ord is None
    assert oq.base_quot.ring.n == 0
    step = oq.collapse_step["generator"]
    assert step == {"kind": "trace", "row": 0, "value": [3]}
    # the witness ideal is everything
    assert oq.j_r.is_unit_ideal()


def test_irreducible_input_collapses():
    rep = d4_rep(tuple(range(8)), tuple(range(8)))
    psr = psrep.psi_of_rep(rep)
    kappa = groups.trivial_char(psr.group, F5, domain=range(8), name="k")
    ch = gma.ch_quotient(psr)
    res = gma.lift_idempotents(ch)
    ctx = ordinary.ordinary_context(gma.gma_decompose(ch, res["e1"]), kappa)
    assert ctx.kappa_alignment == "nonsplit"
    oq = ordinary.ordinary_quotient(ctx)
    assert oq.collapsed
    assert oq.collapse_step["generator"]["kind"] == "trace"


def _old_collapse_step(ctx, j_star):
    """The collapse record as built from the full J_R provenance list."""
    ch = ctx.ch
    tv, dv = ch.t_el(j_star), ch.d_el(j_star)
    prov = [
        {"kind": kind, "row": i, "value": [int(c) for c in v]}
        for i in range(len(j_star))
        for kind, v in (("trace", tv[i]), ("determinant", dv[i]))
    ]
    hit = next((pr for pr in prov if ch.base.is_unit(np.asarray(pr["value"]))), None)
    return {"generator": hit, "note": "" if hit else "unit arises only as a combination of generators"}


def test_collapse_step_matches_the_provenance_list():
    psr, kappa = c4_setup()
    rep = d4_rep(tuple(range(8)), tuple(range(8)))
    d4 = psrep.psi_of_rep(rep)
    ch = gma.ch_quotient(d4)
    contexts = [
        aligned_context(psr, kappa, flip=True),
        ordinary.ordinary_context(
            gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"]),
            groups.trivial_char(d4.group, F5, domain=range(8), name="k"),
        ),
    ]
    for ctx in contexts:
        oq = ordinary.ordinary_quotient(ctx)
        assert oq.collapsed
        assert oq.collapse_step == _old_collapse_step(ctx, oq.j_star_rows)


def test_deformed_dihedral_base_ideal_is_s():
    psr = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, T2, domain=range(5), name="k")
    ctx = aligned_context(psr, kappa)
    oq = ordinary.ordinary_quotient(ctx)
    assert oq.j_r.basis.tolist() == [[0, 1]]
    assert not oq.collapsed
    assert oq.base_quot.ring.n == 1 and oq.base_quot.ring.k == 1
    assert oq.e_ord.nbar == 3


def test_quotient_trace_values_stay_in_the_base_ideal():
    psr = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, T2, domain=range(5), name="k")
    ctx = aligned_context(psr, kappa)
    oq = ordinary.ordinary_quotient(ctx)
    ch = ctx.ch
    for r in oq.j_rows:
        assert oq.j_r.contains(ch.t_el(r))
        assert oq.j_r.contains(ch.d_el(r))


def test_quotient_projection_is_an_algebra_map():
    psr = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, T2, domain=range(5), name="k")
    ctx = aligned_context(psr, kappa)
    oq = ordinary.ordinary_quotient(ctx)
    ch, eo = ctx.ch, oq.e_ord
    proj = oq.ord_proj
    assert np.array_equal((ch.algebra.one @ proj) % eo.algebra.char, eo.algebra.one)
    import random

    rng = random.Random(3)
    for _ in range(40):
        x = oracles.random_element(ch.algebra, rng)
        y = oracles.random_element(ch.algebra, rng)
        lhs = (ch.algebra.mul(x, y) @ proj) % eo.algebra.char
        rhs = eo.algebra.mul((x @ proj) % eo.algebra.char, (y @ proj) % eo.algebra.char)
        assert np.array_equal(lhs, rhs)
    # group images land on group images
    for g in range(psr.group.m):
        assert np.array_equal((ch.rho(g) @ proj) % eo.algebra.char, eo.rho(g))
    h = linalg.howell_form(proj, eo.algebra.p, eo.algebra.k, ncols=eo.nbar)
    assert linalg.span_log_size(h, eo.algebra.p, eo.algebra.k) == eo.algebra.k * eo.nbar


def test_quotient_carries_the_base_changed_trace():
    psr = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, T2, domain=range(5), name="k")
    ctx = aligned_context(psr, kappa)
    oq = ordinary.ordinary_quotient(ctx)
    eo = oq.e_ord
    for g in range(psr.group.m):
        assert np.array_equal(eo.t_el(eo.rho(g)), oq.base_quot.proj(psr.t[g]))
        assert np.array_equal(eo.d_el(eo.rho(g)), oq.base_quot.proj(psr.d[g]))


# ---- deciding ordinarity ---------------------------------------------


def test_decision_diagonal_true():
    psr, kappa = c4_setup()
    out = ordinary.is_ordinary_psrep(psr, kappa)
    assert out["supported"] and out["ordinary"]
    assert out["checked"] == 1
    assert out["witness"]["alignment"] == "corner1"


def test_decision_no_matching_character():
    grp = groups.cyclic_group(4).mark(dp=(0, 1, 2, 3), ip=(0, 1, 2, 3))
    chi2 = groups.cyclic_char(grp, F5, 1, F5.from_int(2))
    psr = psrep.psrep_from_chars(groups.trivial_char(grp, F5, domain=range(4)), chi2)
    kappa = groups.cyclic_char(grp, F5, 1, F5.from_int(2), name="kappa")
    out = ordinary.is_ordinary_psrep(psr, kappa)
    assert out["supported"] and not out["ordinary"]
    assert out["checked"] == 0
    assert "no residual character" in out["reason"]


def test_decision_equal_characters_unsupported():
    c2 = groups.cyclic_group(2).mark(dp=(0, 1), ip=(0, 1))
    triv = groups.trivial_char(c2, F5, domain=range(2))
    psr = psrep.psrep_from_chars(triv, triv)
    out = ordinary.is_ordinary_psrep(psr, groups.trivial_char(c2, F5, domain=range(2)))
    assert not out["supported"]
    assert "coincide" in out["reason"]


def test_decision_irreducible_polynomial_unsupported():
    c3 = groups.cyclic_group(3).mark(dp=(0, 1, 2), ip=(0, 1, 2))
    t = np.array([[2], [4], [4]])
    d = np.array([[1], [1], [1]])
    psr = psrep.Pseudorep2(c3, F5, t, d, name="c3conj")
    out = ordinary.is_ordinary_psrep(psr, groups.trivial_char(c3, F5, domain=range(3)))
    assert not out["supported"]
    assert "irreducible" in out["reason"]


def test_decision_branches_on_the_residual_case_not_its_wording(monkeypatch):
    """The S3 standard trace over F7 splits pointwise with no multiplicative
    assignment: the matrix-residual search runs even when the reason of the
    residual split is reworded to mention irreducibility."""
    doc = dict(scenarios.BUILTIN["s3-irreducible"], name="s3-f7", ring={"kind": "field", "p": 7, "e": 1})
    st = scenarios._State(scenarios.load_scenario(doc))
    psr, kappa = st.psr, st.kappa
    original = psrep.residual_split
    assert original(psr)["case"] == "matrix"

    def reworded(p):
        out = original(p)
        return {**out, "reason": f"irreducible, reworded: {out['reason']}"}

    for mod in (psrep, gma, ordinary):
        if getattr(mod, "residual_split", None) is original:
            monkeypatch.setattr(mod, "residual_split", reworded)
    out = ordinary.is_ordinary_psrep(psr, kappa)
    assert (out["supported"], out["ordinary"], out["checked"]) == (True, False, 56)


def test_decision_checks_kappa_before_reading_it():
    """A kappa over F25 against a trace over F5 is an input error, raised
    before the residual characters are compared with kappa^-1."""
    psr, _ = c4_setup()
    f25 = rings.field_ring(5, 2)
    kappa = groups.trivial_char(psr.group, f25, domain=range(4), name="k25")
    with pytest.raises(InputError, match="kappa must take values in the base ring"):
        ordinary.is_ordinary_psrep(psr, kappa)


def test_decision_builds_no_ordinary_quotient(monkeypatch):
    """The decision reads J_R only: no E_ord is built for a candidate, and
    a scenario builds at most the one its ordinary stage reports."""
    calls, original = [], ordinary.ch_base_change

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(ordinary, "ch_base_change", counted)
    psr, kappa = c4_setup()
    assert ordinary.is_ordinary_psrep(psr, kappa)["ordinary"]
    for dp, ip in [(tuple(range(5)), tuple(range(5))), ((0, 6), (0,))]:
        d5 = d5_t2_psrep(dp, ip)
        ordinary.is_ordinary_psrep(d5, groups.trivial_char(d5.group, T2, domain=dp, name="k"))
    assert calls == []
    scenarios.run_scenario("diag-ordinary")
    assert len(calls) <= 1


def test_decision_matrix_residual_depends_on_kappa():
    # rotations act with eigenvalues +-2, so kappa^-1 = 2 works and 1 does not
    rep = d4_rep((0, 1, 2, 3), (0, 1, 2, 3))
    psr = psrep.psi_of_rep(rep)
    good = groups.cyclic_char(psr.group, F5, 1, F5.from_int(3), name="k3")
    assert ordinary.is_ordinary_psrep(psr, good)["ordinary"]
    bad = groups.trivial_char(psr.group, F5, domain=range(4), name="k1")
    out = ordinary.is_ordinary_psrep(psr, bad)
    assert out["supported"] and not out["ordinary"]
    assert out["checked"] == 30


def test_decision_sees_the_nilpotent_obstruction():
    """The s-deformation is ordinary over the field but not over T2."""
    over_t2 = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    k2 = groups.trivial_char(over_t2.group, T2, domain=range(5), name="k")
    out = ordinary.is_ordinary_psrep(over_t2, k2)
    assert out["supported"] and not out["ordinary"] and out["checked"] == 2
    over_f5 = d5_f5_psrep(tuple(range(5)), tuple(range(5)))
    k5 = groups.trivial_char(over_f5.group, F5, domain=range(5), name="k")
    assert ordinary.is_ordinary_psrep(over_f5, k5)["ordinary"]


def test_decision_searches_both_corners():
    """rho12 vanishes on {e, rs} in one corner only; the search finds it."""
    psr = d5_t2_psrep((0, 6), (0,))
    kappa = groups.trivial_char(psr.group, T2, domain=(0, 6), name="k")
    out = ordinary.is_ordinary_psrep(psr, kappa)
    assert out["supported"] and out["ordinary"]
    ch = gma.ch_quotient(psr)
    res = gma.lift_idempotents(ch)
    flags = []
    for e1 in (res["e1"], res["e2"]):
        ctx = ordinary.ordinary_context(gma.gma_decompose(ch, e1), kappa)
        oq = ordinary.ordinary_quotient(ctx)
        flags.append(oq.j_r.is_zero())
    assert sorted(flags) == [False, True]


def test_decision_agrees_with_representation_oracle():
    """Field-valued instances, decided both ways; at least 50 must agree."""
    instances = []
    c4 = groups.cyclic_group(4)
    for ipset in [(0, 2), (0, 1, 2, 3)]:
        grp = c4.mark(dp=(0, 1, 2, 3), ip=ipset)
        triv = groups.trivial_char(grp, F5, domain=range(4))
        for aval in (2, 3, 4):
            chi = groups.cyclic_char(grp, F5, 1, F5.from_int(aval))
            rep = psrep.rep_from_chars(chi, triv)
            for bval in (1, 2, 3, 4):
                kap = groups.cyclic_char(grp, F5, 1, F5.from_int(bval), name="k")
                instances.append((rep, kap))
    c6 = groups.cyclic_group(6)
    grp6 = c6.mark(dp=(0, 1, 2, 3, 4, 5), ip=(0, 3))
    triv6 = groups.trivial_char(grp6, F7, domain=range(6))
    for aval in (3, 2):
        chi = groups.cyclic_char(grp6, F7, 1, F7.from_int(aval))
        rep = psrep.rep_from_chars(chi, triv6)
        for bval in (1, 2, 3, 4, 5, 6):
            kap = groups.cyclic_char(grp6, F7, 1, F7.from_int(bval), name="k")
            instances.append((rep, kap))
    for dp, ip in [
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        ((0, 1, 2, 3), (0, 2)),
        ((0, 1, 2, 3), (0,)),
    ]:
        rep = d4_rep(dp, ip)
        for bval in (1, 2, 3, 4):
            kap = groups.cyclic_char(rep.group, F5, 1, F5.from_int(bval), name="k")
            instances.append((rep, kap))
    for dp, ip in [((0, 1, 2), (0, 1, 2)), ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))]:
        rep = s3_rep(dp, ip)
        if len(dp) == 3:
            for bval in (1, 2, 4):
                kap = groups.cyclic_char(rep.group, F7, 1, F7.from_int(bval), name="k")
                instances.append((rep, kap))
        else:
            instances.append(
                (rep, groups.trivial_char(rep.group, F7, domain=range(6), name="k"))
            )
    start = time.time()
    agreed = 0
    for rep, kap in instances:
        decision = ordinary.is_ordinary_psrep(psrep.psi_of_rep(rep), kap)
        if not decision["supported"]:
            continue
        assert decision["ordinary"] == rep_ordinary_oracle(rep, kap), rep.name
        agreed += 1
    assert agreed >= 50
    assert time.time() - start < 60


# ---- universality ----------------------------------------------------


def test_factorization_universality():
    cases = []
    psr, kappa = c4_setup()
    cases.append(aligned_context(psr, kappa))
    c2 = groups.cyclic_group(2).mark(dp=(0, 1), ip=(0, 1))
    t = np.array([[2], [0]], dtype=np.int64)
    d = np.array([[1], [24]], dtype=np.int64)
    p2 = psrep.Pseudorep2(c2, Z25, t, d, name="c2pm")
    cases.append(
        aligned_context(p2, groups.trivial_char(c2, Z25, domain=range(2), name="k"))
    )
    rep = d4_rep((0, 1, 2, 3), (0, 1, 2, 3))
    p4 = psrep.psi_of_rep(rep)
    ch = gma.ch_quotient(p4)
    res = gma.lift_idempotents(ch)
    kap = groups.cyclic_char(p4.group, F5, 1, F5.from_int(3), name="k")
    cases.append(ordinary.ordinary_context(gma.gma_decompose(ch, res["e1"]), kap))
    p5 = d5_f5_psrep(tuple(range(5)), tuple(range(5)))
    cases.append(
        aligned_context(p5, groups.trivial_char(p5.group, F5, domain=range(5), name="k"))
    )
    for ctx in cases:
        out = oracles.ordinary_factorization_check(ctx)
        assert out["ok"] and out["qualified"] >= 1


# ---- reducible quotient ----------------------------------------------


def test_reducible_quotient_diagonal():
    psr, kappa = c4_setup()
    ctx = aligned_context(psr, kappa)
    out = oracles.reducible_ordinary_quotient(ctx)
    assert not out["collapsed"] and out["rank_match"]
    assert out["e_red"].nbar == 2
    cert = out["certificate"]
    assert cert["split"]
    vals = sorted(
        tuple(int(c(g)[0]) for g in range(4)) for c in cert["chars"]
    )
    assert vals == [(1, 1, 1, 1), (1, 2, 4, 3)]


def test_reducible_quotient_deformed_dihedral():
    psr = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, T2, domain=range(5), name="k")
    ctx = aligned_context(psr, kappa)
    out = oracles.reducible_ordinary_quotient(ctx)
    assert not out["collapsed"] and out["rank_match"]
    assert out["e_red"].nbar == 3
    assert out["base_quot"].ring.n == 1
    refl = [tuple(int(c(g)[0]) for g in range(5, 10)) for c in out["certificate"]["chars"]]
    assert sorted(refl) == [(1, 1, 1, 1, 1), (4, 4, 4, 4, 4)]


def test_reducible_quotient_collapse():
    rep = d4_rep(tuple(range(8)), tuple(range(8)))
    psr = psrep.psi_of_rep(rep)
    ch = gma.ch_quotient(psr)
    res = gma.lift_idempotents(ch)
    kappa = groups.trivial_char(psr.group, F5, domain=range(8), name="k")
    ctx = ordinary.ordinary_context(gma.gma_decompose(ch, res["e1"]), kappa)
    out = oracles.reducible_ordinary_quotient(ctx)
    assert out["collapsed"] and out["e_red"] is None


# ---- one base change against the three-quotient construction --------


def _lift_to_group_algebra(ch, f):
    """Matrix taking coordinates of ch to those of f.dst[G]: lift to A[G]
    and apply f coefficientwise (ch must come from `ch_quotient`)."""
    assert ch.quot.proj.src.name == f"{ch.base.name}[{ch.psr.group.name}]"
    lifted = ch.quot.lift_matrix.reshape(ch.nbar, ch.psr.group.m, ch.base.n) @ f.matrix
    return lifted.reshape(ch.nbar, ch.psr.group.m * f.dst.n) % f.dst.char


def _rebuild_reference(ch, f, name=None, extra=None):
    """(ch_out, connect) rebuilt from scratch over the target of f: the
    Cayley-Hamilton quotient of f.dst[G] with the images of `extra` under
    the lift killed as well, and connect = lift then project."""
    lift = _lift_to_group_algebra(ch, f)
    if extra is not None:
        extra = (np.reshape(extra, (-1 if ch.nbar else 0, ch.nbar)) @ lift) % f.dst.char
    down = gma.ch_quotient(psrep.psrep_base_change(ch.psr, f), name=name, extra=extra)
    connect = (lift @ down.quot.proj.matrix) % down.algebra.char
    rings.RingMap(ch.algebra, down.algebra, connect, name="connect").check_hom()
    assert np.array_equal((ch.rho_mat @ connect) % down.algebra.char, down.rho_mat)
    return down, connect


def _three_quotient_reference(ch, f, extra_rows, name=None):
    """(ch_out, proj_mat) built as three quotients: the Cayley-Hamilton
    quotient over the target of f, that quotient by the pushed two-sided ideal,
    and a second presentation of the result straight from Abar[G], taken
    from the kernel of the composite projection."""

    def pushforward(quot):
        return (_lift_to_group_algebra(ch, f) @ quot.proj.matrix) % quot.ring.char

    down = gma.ch_quotient(psrep.psrep_base_change(ch.psr, f), name=name)
    abar, group_alg = f.dst, down.quot.proj.src
    pushed = np.reshape(extra_rows, (-1, ch.nbar)) @ pushforward(down.quot)
    rows2 = algebras.two_sided_ideal_rows(down.algebra, pushed % down.algebra.char)
    assert not (rows2.shape[0] and ((rows2 @ down.t_matrix) % abar.char).any())
    quot2 = algebras.quotient_algebra(down.algebra, rows2, name=name)
    p_full = (down.quot.proj.matrix @ quot2.proj.matrix) % max(quot2.ring.char, 1)
    quot_full = algebras.quotient_algebra(group_alg, linalg.kernel(p_full, group_alg.p, group_alg.k), name=name)
    assert quot_full.ring.n == quot2.ring.n
    ebar = quot_full.ring
    t_e = (down.quot.proj.matrix @ down.t_matrix) % abar.char
    rho = (abar.one @ quot_full.proj.matrix.reshape(ch.psr.group.m, abar.n, ebar.n)) % ebar.char
    out = gma.ChAlgebra(algebra=ebar, base=abar, t_matrix=(quot_full.lift_matrix @ t_e) % abar.char, psr=down.psr,
                        quot=quot_full, rho_mat=rho)
    oracles.verify_ch(out)
    return out, pushforward(quot_full)


def _same_base_change(got, want):
    """Equal arrays: table, one, k, base embedding, trace, group images, connect."""
    (g, g_connect), (w, w_connect) = got, want
    assert g.algebra.k == w.algebra.k
    for field in ("table", "one", "base_embed"):
        assert np.array_equal(getattr(g.algebra, field), getattr(w.algebra, field))
    assert np.array_equal(g.t_matrix, w.t_matrix)
    assert np.array_equal(g.rho_mat, w.rho_mat)
    assert np.array_equal(g_connect, w_connect)


def test_ordinary_quotients_match_the_three_quotient_construction(monkeypatch, tmp_path):
    """Every base change of the psrep units the decision digests cover (the
    bundled scenarios and generate_corpus(s, 48), s = 1, 2, 3), of two
    deformed dihedral contexts, of S3 over Z/25 and of the zero ring, the
    residuals through `gma` and E_ord, E_red through `ordinary`, gives the
    arrays of the rebuild from f.dst[G]; E_ord and E_red also those of the
    three-quotient construction."""
    from test_ordinary_decisions import decision_units

    built, original = [], gma.ch_base_change

    def recorder(where):
        def recorded(ch, f, name=None, extra=None):
            out = original(ch, f, name, extra)
            built.append((where, (ch, f, name, extra), out))
            return out

        return recorded

    monkeypatch.setattr(gma, "ch_base_change", recorder("gma"))
    monkeypatch.setattr(ordinary, "ch_base_change", recorder("ordinary"))
    contexts = []
    for _, doc in decision_units(tmp_path):
        state = scenarios._State(scenarios.load_scenario(doc))
        contexts.append(ordinary.ordinary_context(state.gma, state.kappa))
    # the deformed dihedral family, where J* is not inside J_R E
    for dp, ip in [(tuple(range(5)), tuple(range(5))), ((0, 5), (0,))]:
        psr = d5_t2_psrep(dp, ip)
        contexts.append(aligned_context(psr, groups.trivial_char(psr.group, T2, domain=dp, name="k")))
    kept = sum(not oracles.reducible_ordinary_quotient(ctx)["quotient"].collapsed for ctx in contexts)
    from test_gma import s3_irr_psrep

    gma.ch_quotient(s3_irr_psrep(Z25)).residual
    zero = oracles.zero_ring(5)
    t = np.zeros((2, 0), dtype=np.int64)
    zero_ch = gma.ch_quotient(psrep.Pseudorep2(groups.cyclic_group(2), zero, t, t.copy(), name="z"))
    ident = rings.RingMap(zero, zero, np.zeros((0, 0), dtype=np.int64), name="id")
    gma.ch_base_change(zero_ch, ident, extra=np.zeros((0, 0), dtype=np.int64))
    counts = {where: sum(w == where for w, _, _ in built) for where in ("gma", "ordinary")}
    # over a field base the residual is the algebra itself (`gma.Residual`), so
    # only the 22 residuals over bases that are not fields base-change
    assert (len(contexts), kept, counts) == (76, 41, {"gma": 22, "ordinary": 82})
    for where, (ch, f, name, extra), got in built:
        _same_base_change(got, _rebuild_reference(ch, f, name, extra))
        if where == "ordinary":
            _same_base_change(got, _three_quotient_reference(ch, f, extra, name))


def test_psrep_scenarios_run_no_frobenius_and_base_change_only_off_fields(monkeypatch):
    """The bundled psrep scenarios, and diag-ordinary over Z/25: no ring
    runs Frobenius, as the entry rings carry their residue maps, and
    `ch_base_change` runs only for an ordinary quotient, or for the
    residual of an algebra whose base is not a field."""
    frobenius, calls = [], []
    real_frobenius, real_base_change = rings._frobenius_local_data, gma.ch_base_change
    monkeypatch.setattr(rings, "_frobenius_local_data", lambda r: frobenius.append(r) or real_frobenius(r))

    def recorded(ch, f, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, ch.base.maximal_ideal().is_zero()))
        return real_base_change(ch, f, *args, **kwargs)

    monkeypatch.setattr(gma, "ch_base_change", recorded)
    monkeypatch.setattr(ordinary, "ch_base_change", recorded)
    z25 = dict(scenarios.BUILTIN["diag-ordinary"], name="diag-ordinary-z25", ring={"kind": "zmod", "p": 5, "k": 2},
               kappa={"kind": "power", "gen": 1, "value": 18})  # 7 and 18 have order 4 mod 25
    z25["psrep"] = {"kind": "char_pair", "chi1": {"kind": "power", "gen": 1, "value": 7}, "chi2": {"kind": "trivial"}}
    for source in ("diag-ordinary", "s3-irreducible", z25):
        assert scenarios.run_scenario(source).verdict == "ok"
    assert frobenius == []
    # s3-irreducible's ordinary quotient collapses, so it base-changes nothing
    assert calls == [("ordinary_quotient", True), ("residual", False), ("ordinary_quotient", False)]


# ---- tangent counting ------------------------------------------------


def test_tangent_rigid_character_sum():
    c2 = groups.cyclic_group(2).mark(dp=(0, 1), ip=(0, 1))
    sgn = groups.cyclic_char(c2, F5, 1, F5.from_int(4), name="sgn")
    psr = psrep.psrep_from_chars(groups.trivial_char(c2, F5, domain=range(2)), sgn)
    kappa = groups.trivial_char(c2, F5, domain=range(2), name="k")
    for constraint in ("all", "ordinary", "reducible-ordinary"):
        out = oracles.ordinary_tangent_count(psr, kappa, constraint=constraint)
        assert out["supported"]
        assert out["count"] == 1 and out["dimension"] == 0


def test_tangent_dihedral_drops_at_the_ordinary_filter():
    psr = d5_f5_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, F5, domain=range(5), name="k")
    dims = {
        c: oracles.ordinary_tangent_count(psr, kappa, constraint=c)["dimension"]
        for c in ("all", "ordinary", "reducible-ordinary")
    }
    assert dims == {"all": 1, "ordinary": 0, "reducible-ordinary": 0}


def test_tangent_dihedral_drops_at_the_reducibility_filter():
    psr = d5_f5_psrep((0, 6), (0,))
    kappa = groups.trivial_char(psr.group, F5, domain=(0, 6), name="k")
    dims = {
        c: oracles.ordinary_tangent_count(psr, kappa, constraint=c)["dimension"]
        for c in ("all", "ordinary", "reducible-ordinary")
    }
    assert dims == {"all": 1, "ordinary": 1, "reducible-ordinary": 0}


def test_tangent_budget_and_input_errors():
    psr = d5_f5_psrep(tuple(range(5)), tuple(range(5)))
    kappa = groups.trivial_char(psr.group, F5, domain=range(5), name="k")
    with pytest.raises(BudgetExceeded):
        oracles.ordinary_tangent_count(psr, kappa, constraint="all", budget=3)
    with pytest.raises(InputError):
        oracles.ordinary_tangent_count(psr, kappa, constraint="sideways")
    with pytest.raises(InputError):
        oracles.ordinary_tangent_count(psr, None, constraint="ordinary")
    over_t2 = d5_t2_psrep(tuple(range(5)), tuple(range(5)))
    with pytest.raises(InputError):
        oracles.ordinary_tangent_count(over_t2, constraint="all")
    big = groups.cyclic_group(17).mark(dp=(0,), ip=(0,))
    t = 2 * np.ones((17, 1), dtype=np.int64)
    d = np.ones((17, 1), dtype=np.int64)
    with pytest.raises(InputError):
        oracles.ordinary_tangent_count(
            psrep.Pseudorep2(big, F5, t, d), constraint="all"
        )


# ---- property checks -------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_deformation_scale_does_not_change_the_verdict(a):
    d5 = groups.dihedral_group(5).mark(dp=tuple(range(5)), ip=tuple(range(5)))
    t = np.zeros((10, 2), dtype=np.int64)
    d = np.zeros((10, 2), dtype=np.int64)
    for j in range(5):
        t[j] = [2, (a * j * j) % 5]
        d[j] = [1, 0]
        t[5 + j] = [0, 0]
        d[5 + j] = [4, 0]
    psr = psrep.Pseudorep2(d5, T2, t, d, name="d5scaled")
    kappa = groups.trivial_char(d5, T2, domain=range(5), name="k")
    out = ordinary.is_ordinary_psrep(psr, kappa)
    assert out["supported"] and not out["ordinary"]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_diagonal_decision_matches_character_arithmetic(aval, bval):
    """For a split pair the decision is pure character comparison on Ip."""
    grp = groups.cyclic_group(4).mark(dp=(0, 1, 2, 3), ip=(0, 2))
    chi = groups.cyclic_char(grp, F5, 1, F5.from_int(aval))
    triv = groups.trivial_char(grp, F5, domain=range(4))
    kappa = groups.cyclic_char(grp, F5, 1, F5.from_int(bval), name="k")
    if aval == 1:
        return
    psr = psrep.psrep_from_chars(chi, triv)
    expect = any(
        all(np.array_equal(c(g), kappa.inv_value(g)) for g in grp.ip)
        for c in (chi, triv)
    )
    assert ordinary.is_ordinary_psrep(psr, kappa)["ordinary"] == expect
