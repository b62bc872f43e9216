"""Release gate: ten numbered criteria, one test and one verdict line each.

Every criterion is self-contained and zero-tolerance: each builds its
own instance corpus with fixed seeds, checks every instance against an
independent oracle (enumeration, brute-force linear algebra, or closed
forms computed by hand), and asserts its own wall-clock budget.  Shared
heavyweight corpora are cached at module level so the first criterion
that needs them pays for the build inside its own budget.
"""

import itertools
import random
import re
import time

import numpy as np
import oracles

from exalg import gma, groups, linalg, modules, ordinary, psrep, scenarios, towers
from exalg.psrep import extended_forms
from exalg.rings import DvrModel, RingMap, field_ring, truncated_poly_ring, zmod_ring

F3 = zmod_ring(3, 1)
F5 = zmod_ring(5, 1)
F7 = zmod_ring(7, 1)
F9 = field_ring(3, 2)
Z25 = zmod_ring(5, 2)
Z125 = zmod_ring(5, 3)
Z625 = zmod_ring(5, 4)
T2 = truncated_poly_ring(F5, 2, name="T2")
O5 = DvrModel(5, 1, 16)


def _finish(num: int, t0: float, limit: float) -> None:
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {num} overran its budget: {elapsed:.1f}s >= {limit}s"
    print(f"criterion {num}: PASS ({elapsed:.1f}s)")


def _nth_roots(ring, n, cap=40):
    """Unit solutions of x^n = 1, the valid order-n character values."""
    roots = []
    for x in oracles.elements(ring):
        if not ring.is_unit(x):
            continue
        y = ring.one
        for _ in range(n):
            y = ring.mul(y, x)
        if np.array_equal(y % ring.char, ring.one):
            roots.append(x.copy())
            if len(roots) >= cap:
                break
    return roots


def _two_sided_sign(grp, ring):
    """Trivial on the rotation half, -1 on the reflection half."""
    n = grp.m // 2
    neg = (-ring.one) % ring.char
    return lambda g: ring.one.copy() if g < n else neg.copy()


def _psr_from_values(grp, ring, f1, f2, name="ss"):
    t = np.array([ring.add(f1(g), f2(g)) for g in grp.elements()])
    d = np.array([ring.mul(f1(g), f2(g)) for g in grp.elements()])
    return psrep.Pseudorep2(grp, ring, t, d, name=name)


def _d4_rep(dp, ip, ring=F5):
    grp = groups.dihedral_group(4).mark(dp=dp, ip=ip)
    rot = np.zeros((2, 2, 1), dtype=np.int64)
    rot[0, 1], rot[1, 0] = ring.char - 1, 1
    ref = np.zeros((2, 2, 1), dtype=np.int64)
    ref[0, 0], ref[1, 1] = 1, ring.char - 1
    return oracles.MatrixRep2.from_generators(grp, ring, {1: rot, 4: ref}, name="d4std")


def _s3_rep(dp, ip, ring=F7):
    grp = groups.symmetric_3().mark(dp=dp, ip=ip)
    rot = np.zeros((2, 2, 1), dtype=np.int64)
    rot[0, 1], rot[1, 0], rot[1, 1] = ring.char - 1, 1, ring.char - 1
    swap = np.zeros((2, 2, 1), dtype=np.int64)
    swap[0, 1], swap[1, 0] = 1, 1
    return oracles.MatrixRep2.from_generators(grp, ring, {1: rot, 3: swap}, name="std")


# ---- shared corpora, built lazily ------------------------------------

_PSREPS = None
_TOWERS = None


def _psrep_corpus():
    """Pseudorepresentations with liftable idempotents, tagged by shape."""
    global _PSREPS
    if _PSREPS is not None:
        return _PSREPS
    out = []

    def diag(n, ring, v1, v2):
        grp = groups.cyclic_group(n)
        chi1 = groups.cyclic_char(grp, ring, 1, ring.from_int(v1))
        chi2 = groups.cyclic_char(grp, ring, 1, ring.from_int(v2), name="chi2")
        out.append(("diag", psrep.psrep_from_chars(chi1, chi2, name=f"c{n}/{ring.name}")))

    diag(2, F3, 1, 2)
    diag(4, F5, 2, 1)
    diag(4, F5, 2, 3)
    diag(3, F7, 2, 4)
    diag(6, F7, 3, 1)
    diag(2, Z25, 24, 1)
    diag(4, Z25, 7, 1)
    diag(2, Z125, 124, 1)
    diag(4, Z625, pow(2, 125, 625), 1)
    for n, ring, v in [(4, F5, 2), (3, F7, 4)]:
        grp = groups.cyclic_group(n)
        chi = groups.cyclic_char(grp, ring, 1, ring.from_int(v))
        triv = groups.trivial_char(grp, ring)
        rep = oracles.unipotent_conjugate(oracles.rep_from_chars(chi, triv))
        out.append(("diag", oracles.psi_of_rep(rep, name=f"tri{n}/{ring.name}")))
    out.append(("irr", oracles.psi_of_rep(_s3_rep((0, 1, 2), (0, 1, 2), F5), name="s3/F5")))
    out.append(("irr", oracles.psi_of_rep(_s3_rep((0, 1, 2), (0, 1, 2), F7), name="s3/F7")))
    out.append(("irr", oracles.psi_of_rep(_d4_rep((0, 1, 2, 3), (0, 2)), name="d4/F5")))
    d5 = groups.dihedral_group(5).mark(dp=tuple(range(5)), ip=tuple(range(5)))
    t = np.zeros((10, 2), dtype=np.int64)
    d = np.zeros((10, 2), dtype=np.int64)
    for j in range(5):
        t[j] = [2, (j * j) % 5]
        d[j] = [1, 0]
        d[5 + j] = [4, 0]
    out.append(("deformed", psrep.Pseudorep2(d5, T2, t, d, name="d5/T2")))
    _PSREPS = out
    return out


def _tower_corpus_cached():
    global _TOWERS
    if _TOWERS is None:
        t0 = time.time()
        _TOWERS = (towers.tower_corpus(), time.time() - t0)
    return _TOWERS


# ---- criterion 1 -----------------------------------------------------


def test_criterion_01_seeded_traces_validate_and_perturbations_fail():
    t0 = time.time()
    rng = random.Random(101)
    rings = [
        F3, F5, F7, F9, Z25, Z125, Z625, T2,
        field_ring(5, 2), field_ring(7, 2), zmod_ring(3, 2), zmod_ring(3, 3),
        zmod_ring(7, 2), truncated_poly_ring(F7, 2, name="T7"),
    ]
    assert all(r.size <= 5**4 for r in rings)
    psrs = []
    for ring in rings:
        for n in (2, 3, 4, 6):
            grp = groups.cyclic_group(n)
            roots = _nth_roots(ring, n)
            pairs = list(itertools.product(range(len(roots)), repeat=2))
            for i, j in rng.sample(pairs, min(6, len(pairs))):
                chi1 = groups.cyclic_char(grp, ring, 1, roots[i])
                chi2 = groups.cyclic_char(grp, ring, 1, roots[j], name="chi2")
                rep = oracles.rep_from_chars(chi1, chi2)
                psrs.append(oracles.psi_of_rep(rep, name=f"c{n}/{ring.name}"))
    psrs.append(oracles.psi_of_rep(_s3_rep((0, 1, 2), (0, 1, 2), F5)))
    psrs.append(oracles.psi_of_rep(_s3_rep((0, 1, 2), (0, 1, 2), F7)))
    psrs.append(oracles.psi_of_rep(_d4_rep((0, 1, 2, 3), (0, 2))))
    assert len(psrs) >= 200
    for psr in psrs:
        report = psrep.validate_pseudorep(psr)
        assert report["ok"], (psr.name, report["failures"])
    for _ in range(100):
        psr = rng.choice(psrs)
        t, d = psr.t.copy(), psr.d.copy()  # a pseudorep's arrays are read-only
        arr = t if rng.random() < 0.5 else d
        g = rng.randrange(psr.group.m)
        coord = rng.randrange(psr.ring.n)
        delta = rng.randrange(1, psr.ring.char)
        arr[g, coord] = (arr[g, coord] + delta) % psr.ring.char
        report = psrep.validate_pseudorep(psrep.Pseudorep2(psr.group, psr.ring, t, d, name=psr.name))
        assert not report["ok"], (psr.name, g, coord, delta)
        w = report["failures"][0]
        assert w["law"] and w["lhs"] != w["rhs"]
        assert psrep.validate_pseudorep(psr)["ok"]  # the original is untouched
    _finish(1, t0, 10)


# ---- criterion 2 -----------------------------------------------------


def _induced_trace_radical(psr, rows):
    """Radical of the pairing that t induces on the quotient by `rows`."""
    from exalg.algebras import quotient_algebra

    ext = extended_forms(psr)
    quot = quotient_algebra(ext.algebra, rows)
    ebar = quot.ring
    if ebar.n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    a = psr.ring
    tbar = np.zeros((ebar.n, a.n), dtype=np.int64)
    eye = np.eye(ebar.n, dtype=np.int64)
    for i in range(ebar.n):
        tbar[i] = ext.t_el(eye[i] @ quot.lift_matrix)
    cols = [(ebar.right_mul_matrix(e) @ tbar) % ebar.char for e in eye]
    return linalg.kernel(np.hstack(cols), ebar.p, ebar.k)


def _brute_char_kernel(psr, f1, f2):
    """Left kernel of x -> (f1(x), f2(x)) on the group algebra basis."""
    a, grp = psr.ring, psr.group
    eye = np.eye(a.n, dtype=np.int64)
    rows = [
        np.concatenate([a.mul(eye[j], f1(g)), a.mul(eye[j], f2(g))])
        for g in grp.elements()
        for j in range(a.n)
    ]
    return linalg.kernel(np.asarray(rows) % a.char, a.p, a.k)


def test_criterion_02_group_algebra_kernels_match_brute_force():
    t0 = time.time()
    fields = [F3, F5, F7, F9]
    assert all(f.size <= 9 for f in fields)
    grps = [groups.cyclic_group(n) for n in range(1, 13)]
    grps += [groups.dihedral_group(n) for n in range(2, 7)]
    grps.append(groups.symmetric_3())
    assert all(g.m <= 12 for g in grps)
    checked = 0
    for grp, ring in itertools.product(grps, fields):
        pairs = []
        one = lambda g: ring.one.copy()
        pairs.append((one, one))
        if grp.name.startswith(("D", "S")):
            sign = _two_sided_sign(grp, ring)
            pairs.append((one, sign))
        else:
            roots = _nth_roots(ring, grp.m)
            if len(roots) > 1:
                chi = groups.cyclic_char(grp, ring, 1, roots[1])
                pairs.append((one, lambda g, c=chi: c(g)))
                pairs.append((lambda g, c=chi: c(g), lambda g, c=chi: c(g)))
        for f1, f2 in pairs:
            psr = _psr_from_values(grp, ring, f1, f2)
            ext = extended_forms(psr)
            rows = oracles.kernel_rows(ext)  # verifies the ideal and vanishing laws
            assert _induced_trace_radical(psr, rows).shape[0] == 0
            brute = _brute_char_kernel(psr, f1, f2)
            assert linalg.span_equal(rows, brute), (grp.name, ring.name)
            checked += 1
    # irreducible instances exercise the induced law away from the split case
    for ring in (F5, F7):
        psr = oracles.psi_of_rep(_s3_rep((0, 1, 2), (0, 1, 2), ring))
        rows = oracles.kernel_rows(extended_forms(psr))
        assert _induced_trace_radical(psr, rows).shape[0] == 0
        checked += 1
    assert checked >= 72
    _finish(2, t0, 30)


# ---- criterion 3 -----------------------------------------------------


def test_criterion_03_quotient_identity_reproduction_and_lifting():
    t0 = time.time()
    rng = random.Random(303)
    for kind, psr in _psrep_corpus():
        ch = gma.ch_quotient(psr)
        size = ch.algebra.char ** ch.nbar
        if size <= 5**6:
            for x in oracles.elements(ch.algebra):
                assert not oracles.ch_at(ch, np.array(x)).any(), psr.name
        else:
            for _ in range(100):
                x = oracles.random_element(ch.algebra, rng)
                assert not oracles.ch_at(ch, x).any(), psr.name
        e1 = gma.lift_idempotents(ch, 400000)
        assert oracles.newton_iterations(ch, e1) <= oracles.radical_nilpotency_class(psr.ring), psr.name
        g = gma.gma_decompose(ch, e1)
        a, al = ch.base, ch.algebra
        _, p12, p21 = oracles.peirce(g)
        for gi in psr.group.elements():
            x = ch.rho(gi)
            tsum = (g.phi1_of(x) + (x @ g.phi2) % g.base.char) % a.char
            assert np.array_equal(tsum, psr.t[gi]), psr.name
            x12 = (x @ p12) % al.char
            x21 = (x @ p21) % al.char
            det = (a.mul(g.phi1_of(x), (x @ g.phi2) % g.base.char) - g.phi1_of(al.mul(x12, x21))) % a.char
            assert np.array_equal(det, psr.d[gi]), psr.name
    _finish(3, t0, 60)


# ---- criterion 4 -----------------------------------------------------


def test_criterion_04_reducibility_ideal_and_split_certificates():
    t0 = time.time()
    for kind, psr in _psrep_corpus():
        ch = gma.ch_quotient(psr)
        g = gma.gma_decompose(ch, gma.lift_idempotents(ch, 400000))
        red = gma.reducibility_ideal(g, 200000)
        quot = red["quotient"]
        if kind == "diag":
            assert red["ideal"].is_zero(), psr.name
        if kind == "irr":
            assert quot.ring.n == 0 and red["ideal"].contains(psr.ring.one), psr.name
        cert = red["certificate"]
        assert cert is not None and cert["split"], psr.name
        if cert["chars"] is None:
            assert quot.ring.n == 0 or cert.get("trivial"), psr.name
            continue
        chi1, chi2 = cert["chars"]
        qr, grp = quot.ring, psr.group
        for x in grp.elements():
            for y in grp.elements():
                xy = grp.mul(x, y)
                assert np.array_equal(chi1(xy), qr.mul(chi1(x), chi1(y))), psr.name
                assert np.array_equal(chi2(xy), qr.mul(chi2(x), chi2(y))), psr.name
            assert np.array_equal(quot.proj(psr.t[x]), qr.add(chi1(x), chi2(x))), psr.name
            assert np.array_equal(quot.proj(psr.d[x]), qr.mul(chi1(x), chi2(x))), psr.name
    _finish(4, t0, 30)


# ---- criterion 5 -----------------------------------------------------


def _aligned_context(psr, kappa):
    ch = gma.ch_quotient(psr)
    resq = psr.ring.residue_field()
    split = psrep.residual_split(psrep.psrep_base_change(psr, resq.proj))
    target = None
    if split["split"] and split["chars"]:
        match = [
            c
            for c in split["chars"]
            if all(np.array_equal(c(g), resq.proj(kappa.inv_value(g))) for g in psr.group.ip)
        ]
        target = match[0] if match else split["chars"][0]
    targets, _ = gma._residual_targets(ch.residual, None if target is None else [target], 400000)
    return ordinary.ordinary_context(gma.gma_decompose(ch, gma._newton_lift(ch, targets[0])[0]), kappa)


def test_criterion_05_ordinary_quotient_universality():
    t0 = time.time()
    cases = []

    def cyclic_case(n, ring, v1, v2, kv, ip):
        grp = groups.cyclic_group(n).mark(dp=tuple(range(n)), ip=ip)
        chi1 = groups.cyclic_char(grp, ring, 1, ring.from_int(v1))
        chi2 = groups.cyclic_char(grp, ring, 1, ring.from_int(v2), name="chi2")
        kappa = groups.cyclic_char(grp, ring, 1, ring.from_int(kv), name="kappa")
        return _aligned_context(psrep.psrep_from_chars(chi1, chi2), kappa)

    cases.append(("c4", cyclic_case(4, F5, 2, 1, 3, (0, 2)), 12))
    c2 = groups.cyclic_group(2).mark(dp=(0, 1), ip=(0, 1))
    p2 = psrep.Pseudorep2(
        c2, Z25, np.array([[2], [0]]), np.array([[1], [24]]), name="c2pm"
    )
    cases.append(
        ("c2z25", _aligned_context(p2, groups.trivial_char(c2, Z25, domain=range(2), name="k")), 13)
    )
    d4 = oracles.psi_of_rep(_d4_rep((0, 1, 2, 3), (0, 1, 2, 3)))
    ch = gma.ch_quotient(d4)
    kap = groups.cyclic_char(d4.group, F5, 1, F5.from_int(3), name="k")
    ctx = ordinary.ordinary_context(
        gma.gma_decompose(ch, gma.lift_idempotents(ch, 400000)), kap
    )
    cases.append(("d4", ctx, 21))
    cases.append(("c2f5", cyclic_case(2, F5, 4, 1, 4, (0, 1)), None))
    cases.append(("c3f7", cyclic_case(3, F7, 2, 1, 2, (0, 1, 2)), None))
    cases.append(("c6f7", cyclic_case(6, F7, 3, 1, 3, (0, 3)), None))
    s3 = oracles.psi_of_rep(_s3_rep((0, 1, 2), (0, 1, 2), F7))
    ch3 = gma.ch_quotient(s3)
    ctx3 = ordinary.ordinary_context(
        gma.gma_decompose(ch3, gma.lift_idempotents(ch3, 400000)),
        groups.trivial_char(s3.group, F7, domain=range(6), name="k"),
    )
    cases.append(("s3", ctx3, None))
    for label, ctx, want in cases:
        assert ctx.gma.base.size <= 25 and ctx.gma.ch.psr.group.m <= 8, label
        out = oracles.ordinary_factorization_check(ctx)
        assert out["ok"], label
        if want is not None:
            assert out["qualified"] == want, (label, out["qualified"])
        else:
            assert out["qualified"] >= 1, label
    _finish(5, t0, 300)


# ---- criterion 6 -----------------------------------------------------


def _rep_ordinary_oracle(rep, kappa):
    """Enumerate ordered eigen-line pairs over the projective line."""
    f, grp = rep.ring, rep.group
    lines = [np.stack([f.one, x]) for x in oracles.elements(f)] + [np.stack([f.zero(), f.one])]

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


def test_criterion_06_trace_decision_matches_representation_oracle():
    t0 = time.time()
    instances = []
    c4 = groups.cyclic_group(4)
    for ipset in [(0, 2), (0, 1, 2, 3)]:
        grp = c4.mark(dp=(0, 1, 2, 3), ip=ipset)
        triv = groups.trivial_char(grp, F5, domain=range(4))
        for aval in (2, 3, 4):
            chi = groups.cyclic_char(grp, F5, 1, F5.from_int(aval))
            rep = oracles.rep_from_chars(chi, triv)
            for bval in (1, 2, 3, 4):
                kap = groups.cyclic_char(grp, F5, 1, F5.from_int(bval), name="k")
                instances.append((rep, kap))
    c6 = groups.cyclic_group(6)
    grp6 = c6.mark(dp=(0, 1, 2, 3, 4, 5), ip=(0, 3))
    triv6 = groups.trivial_char(grp6, F7, domain=range(6))
    for aval in (3, 2):
        chi = groups.cyclic_char(grp6, F7, 1, F7.from_int(aval))
        rep = oracles.rep_from_chars(chi, triv6)
        for bval in (1, 2, 3, 4, 5, 6):
            kap = groups.cyclic_char(grp6, F7, 1, F7.from_int(bval), name="k")
            instances.append((rep, kap))
    for dp, ip in [
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        ((0, 1, 2, 3), (0, 2)),
        ((0, 1, 2, 3), (0,)),
    ]:
        rep = _d4_rep(dp, ip)
        for bval in (1, 2, 3, 4):
            kap = groups.cyclic_char(rep.group, F5, 1, F5.from_int(bval), name="k")
            instances.append((rep, kap))
    rep = _s3_rep((0, 1, 2), (0, 1, 2))
    for bval in (1, 2, 4):
        kap = groups.cyclic_char(rep.group, F7, 1, F7.from_int(bval), name="k")
        instances.append((rep, kap))
    rep = _s3_rep((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))
    instances.append((rep, groups.trivial_char(rep.group, F7, domain=range(6), name="k")))
    agreed = 0
    for rep, kap in instances:
        decision = oracles.is_ordinary_psrep(oracles.psi_of_rep(rep), kap)
        if not decision["supported"]:
            continue
        assert decision["ordinary"] == _rep_ordinary_oracle(rep, kap), rep.name
        agreed += 1
    assert agreed >= 50
    _finish(6, t0, 60)


# ---- criterion 7 -----------------------------------------------------


def test_criterion_07_numerical_criterion_on_branch_quotients():
    t0 = time.time()
    for r in (1, 2, 3):
        t = towers.branch_algebra(O5, r)
        rep = towers.lenstra_check(t.ring, RingMap.identity(t.ring), t)
        assert rep["cotangent_length"] == r == rep["eta_colength"]
        assert rep["criterion_met"] and rep["isomorphism"] and rep["complete_intersection"]
        assert rep["presentation_degree"] == 2
        pres = towers.complete_intersection_route(t)
        assert pres["degree"] == 2 and not pres["relation"][0].any()
        assert np.array_equal(pres["relation"][1], O5.t(r))
        # replay the quoted relation x^2 = t^r x inside the algebra itself
        x = t.lam_basis[1]
        lhs = t.ring.mul(x, x)
        rhs = t.ring.mul(t.emb(O5.t(r)), x)
        assert np.array_equal(lhs, rhs)
    ring, pi = oracles.pinched_cubic(O5)
    rep = towers.lenstra_check(ring, pi, towers.base_algebra(O5))
    assert rep["cotangent_length"] == 1 and rep["eta_colength"] == 0
    assert rep["criterion_met"] is False
    assert rep["isomorphism"] is None and rep["complete_intersection"] is None
    _finish(7, t0, 10)


# ---- criterion 8 -----------------------------------------------------


def test_criterion_08_tower_collection_conditions_agree():
    t0 = time.time()
    corpus, build_secs = _tower_corpus_cached()
    assert len(corpus) >= 20
    rows = towers.audit_table(corpus)
    non_gor = [r for r in rows if r["gorenstein_h"] is False]
    assert len(non_gor) >= 5
    by_label = {t.label: t for t in corpus}
    assert len(by_label) == len(corpus)
    for row in rows:
        t = by_label[row["label"]]
        assert row["consistent"], row["label"]
        if not t.degenerate:
            assert row["eisenstein_colength"] == t.r, row["label"]
        block = [
            row["principal_nzd"],
            row["both_principal"],
            row["embdim_two"],
            row["both_gorenstein"],
        ]
        assert len(set(block)) == 1, row["label"]
        # annihilator identities: the two spans kill each other exactly
        for u in t.script_I.basis:
            for v in t.ker_h.basis:
                assert not t.H.mul(u, v).any(), row["label"]
    assert build_secs < 60
    _finish(8, t0, 60)


# ---- criterion 9 -----------------------------------------------------


def _r_span_relations(ring, rows, g):
    """R-span of seed rows: additive span of all basis multiples."""
    blocks = np.asarray(rows, dtype=np.int64).reshape(-1, g, ring.n) % ring.char
    prods = np.einsum("rgi,ijl->jrgl", blocks, ring.table) % ring.char
    return prods.reshape(-1, g * ring.n)


def test_criterion_09_fitting_bounds_annihilator_and_cotangent():
    t0 = time.time()
    rng = random.Random(909)
    ring_pool = [F5, F7, Z25, zmod_ring(3, 2), T2]
    checked = 0
    while checked < 100:
        ring = rng.choice(ring_pool)
        g = rng.randint(1, 3)
        rels = rng.randint(g, g + 2)
        seed = np.array(
            [[rng.randrange(ring.char) for _ in range(g * ring.n)] for _ in range(rels)]
        )
        closed = _r_span_relations(ring, seed, g)
        mod = oracles.FinModule(ring, g, closed)
        fitt = modules.fitting_ideal(ring, closed.reshape(-1, g, ring.n))
        ann = mod.annihilator()
        assert ann.contains_ideal(fitt), (ring.name, g)
        checked += 1
    corpus, _ = _tower_corpus_cached()
    for t in corpus:
        replay = towers.fitting_replay(t)
        if replay["annihilator_vanishes"]:
            assert replay["bound_met"], replay["label"]
            assert replay["cotangent_length"] >= replay["bound"] == t.r
        # the cotangent side re-derived from the construction parameters
        label = replay["label"]
        if label.startswith("plane"):
            assert replay["cotangent_length"] == t.r, label
        elif label.startswith("axes"):
            s = int(re.search(r"-s(\d+)-", label).group(1))
            assert replay["cotangent_length"] == s, label
        elif label.startswith("branch"):
            m = int(re.search(r"-m(\d+)-", label).group(1))
            assert replay["cotangent_length"] == t.r + min(t.r, m), label
    _finish(9, t0, 30)


# ---- criterion 10 ----------------------------------------------------


def test_criterion_10_identical_seeds_identical_bytes(tmp_path):
    t0 = time.time()
    def run(source, seed=None):
        return scenarios.run_scenario(scenarios.load_scenario(source, seed=seed)).canonical()

    first = [run(n, seed=9) for n in sorted(scenarios.BUILTIN)]
    second = [run(n, seed=9) for n in sorted(scenarios.BUILTIN)]
    assert first == second
    m1 = scenarios.generate_corpus(seed=3, count=12, out_dir=tmp_path / "one")
    m2 = scenarios.generate_corpus(seed=3, count=12, out_dir=tmp_path / "two")
    assert m1 == m2
    for f in m1["files"]:
        a = (tmp_path / "one" / f"{f['name']}.json").read_bytes()
        b = (tmp_path / "two" / f"{f['name']}.json").read_bytes()
        assert a == b, f["name"]
    name = m1["files"][0]["name"]
    path = tmp_path / "one" / f"{name}.json"
    assert run(path) == run(path)
    _finish(10, t0, 120)
