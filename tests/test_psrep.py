"""Trace/determinant pair tests.

The main oracle is an honest 2-dimensional representation: its trace and
determinant must satisfy every pseudorepresentation law, and the algebra
extension of (t, d) must agree with trace and determinant composed with
the induced algebra map rho_hat(x) = sum x_g rho(g).
"""

import functools
import random

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import groups, linalg, psrep, rings, scenarios
from exalg.errors import InputError, InvariantViolation

F5 = rings.zmod_ring(5, 1)
F7 = rings.zmod_ring(7, 1)
F25 = rings.field_ring(5, 2)
Z25 = rings.zmod_ring(5, 2)


def s3_faithful_rep(ring):
    """The 2-dimensional irreducible of S3 by companion and swap matrices."""
    s3 = groups.symmetric_3()
    rot = np.zeros((2, 2, ring.n), dtype=np.int64)
    rot[0, 1] = (-ring.one) % ring.char
    rot[1, 0] = ring.one
    rot[1, 1] = (-ring.one) % ring.char
    swap = np.zeros((2, 2, ring.n), dtype=np.int64)
    swap[0, 1] = ring.one
    swap[1, 0] = ring.one
    return oracles.MatrixRep2.from_generators(s3, ring, {1: rot, 3: swap}, name="std")


def c3_irreducible_rep(ring):
    c3 = groups.cyclic_group(3)
    rot = np.zeros((2, 2, ring.n), dtype=np.int64)
    rot[0, 1] = (-ring.one) % ring.char
    rot[1, 0] = ring.one
    rot[1, 1] = (-ring.one) % ring.char
    return oracles.MatrixRep2.from_generators(c3, ring, {1: rot}, name="c3std")


# ---- validation laws ------------------------------------------------


def test_trace_of_honest_rep_validates():
    for rep in [s3_faithful_rep(F5), s3_faithful_rep(F7), c3_irreducible_rep(F5)]:
        psr = oracles.psi_of_rep(rep)
        report = psrep.validate_pseudorep(psr)
        assert report["ok"], report["failures"]


def test_sum_of_characters_validates():
    c4 = groups.cyclic_group(4)
    chi1 = groups.cyclic_char(c4, F5, 1, np.array([2]))
    chi2 = groups.trivial_char(c4, F5)
    psr = psrep.psrep_from_chars(chi1, chi2)
    psr.check()
    assert psr.t[1].tolist() == [3]
    assert psr.d[1].tolist() == [2]


def test_a_pseudorep_validates_once_and_its_arrays_are_read_only(monkeypatch):
    calls, validate = [], psrep.validate_pseudorep
    monkeypatch.setattr(psrep, "validate_pseudorep", lambda psr: calls.append(psr) or validate(psr))
    psr = oracles.psi_of_rep(s3_faithful_rep(F5))
    psr.check()
    psr.check()
    assert psr.validation["ok"] and calls == [psr]
    for arr in (psr.t, psr.d):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_corrupted_trace_is_witnessed():
    rep = s3_faithful_rep(F5)
    psr = oracles.psi_of_rep(rep)
    t = psr.t.copy()
    t[2] = (t[2] + 1) % 5
    report = psrep.validate_pseudorep(psrep.Pseudorep2(psr.group, psr.ring, t, psr.d))
    assert not report["ok"]
    laws = {f["law"] for f in report["failures"]}
    assert any("t(g)t(h)" in l or "2 d(g)" in l for l in laws)
    # witnesses carry evaluable data
    first = report["failures"][0]
    assert "at" in first and "lhs" in first and "rhs" in first


def test_corrupted_det_is_witnessed():
    c4 = groups.cyclic_group(4)
    psr = psrep.psrep_from_chars(
        groups.cyclic_char(c4, F5, 1, np.array([2])), groups.trivial_char(c4, F5)
    )
    d = psr.d.copy()
    d[2] = np.array([0])
    report = psrep.validate_pseudorep(psrep.Pseudorep2(psr.group, psr.ring, psr.t, d))
    assert not report["ok"]
    assert any(f["law"] == "d unit-valued" for f in report["failures"])


# ---- stacked checks against the per-element loops they replaced -------


def _loop_validate(psr, max_failures=10):
    """`validate_pseudorep` one element and one pair at a time."""
    grp, r = psr.group, psr.ring
    failures = []

    def bad(law, where, lhs, rhs):
        failures.append(
            {
                "law": law,
                "at": where,
                "lhs": [int(c) for c in np.atleast_1d(lhs)],
                "rhs": [int(c) for c in np.atleast_1d(rhs)],
            }
        )

    e = grp.identity
    two = r.from_int(2)
    if not np.array_equal(psr.t[e], two):
        bad("t(1) = 2", (e,), psr.t[e], two)
    if not np.array_equal(psr.d[e], r.one):
        bad("d(1) = 1", (e,), psr.d[e], r.one)
    inv2 = pow(2, -1, r.char) if r.n else 0
    for g in grp.elements():
        if len(failures) >= max_failures:
            break
        if not r.is_unit(psr.d[g]):
            bad("d unit-valued", (g,), psr.d[g], r.one)
        want = (inv2 * (r.mul(psr.t[g], psr.t[g]) - psr.t[grp.mul(g, g)])) % r.char
        if not np.array_equal(psr.d[g], want):
            bad("2 d(g) = t(g)^2 - t(g^2)", (g,), psr.d[g], want)
    for g in grp.elements():
        if len(failures) >= max_failures:
            break
        for h in grp.elements():
            if not np.array_equal(psr.d[grp.mul(g, h)], r.mul(psr.d[g], psr.d[h])):
                bad("d(gh) = d(g) d(h)", (g, h), psr.d[grp.mul(g, h)], r.mul(psr.d[g], psr.d[h]))
            if not np.array_equal(psr.t[grp.mul(g, h)], psr.t[grp.mul(h, g)]):
                bad("t(gh) = t(hg)", (g, h), psr.t[grp.mul(g, h)], psr.t[grp.mul(h, g)])
            lhs = r.mul(psr.t[g], psr.t[h])
            rhs = r.add(psr.t[grp.mul(g, h)], r.mul(psr.d[h], psr.t[grp.mul(g, grp.inv(h))]))
            if not np.array_equal(lhs, rhs):
                bad("t(g)t(h) = t(gh) + d(h) t(gh^-1)", (g, h), lhs, rhs)
            if len(failures) >= max_failures:
                break
    return {"ok": not failures, "failures": failures}


def _loop_check_failure(rep):
    """First failure of `MatrixRep2.check`, one element and one pair at a time."""
    grp = rep.group
    if not np.array_equal(rep.images[grp.identity], rep._eye(rep.ring)):
        return "identity image is not the identity matrix"
    for g in grp.elements():
        if not rep.ring.is_unit(rep.det(rep.images[g])):
            return f"image of {g} is not invertible"
        for h in grp.elements():
            if not np.array_equal(rep.images[grp.mul(g, h)], rep.matmul(rep.images[g], rep.images[h])):
                return f"multiplicativity fails at ({g},{h})"
    return None


def _c4_diag(ring, value):
    c4 = groups.cyclic_group(4)
    return oracles.rep_from_chars(groups.cyclic_char(c4, ring, 1, ring.from_int(value)), groups.trivial_char(c4, ring))


@functools.cache
def _rep_case(name):
    """One honest representation from each psrep family."""
    if name == "diag-field":
        return _c4_diag(F5, 2)
    if name == "diag-zmod":
        return _c4_diag(Z25, 7)
    if name == "triangular":
        rep = _c4_diag(F5, 3)
        unip = np.zeros((2, 2, 1), dtype=np.int64)
        unip[0, 0] = unip[0, 1] = unip[1, 1] = 1
        inv = unip.copy()
        inv[0, 1] = 4
        images = [rep.matmul(unip, rep.matmul(rep.of(g), inv)) for g in range(4)]
        return oracles.MatrixRep2(rep.group, F5, images, name="tri")
    if name == "dihedral":
        d4 = groups.dihedral_group(4)
        rot = np.zeros((2, 2, 1), dtype=np.int64)
        rot[0, 1], rot[1, 0] = 4, 1
        ref = np.zeros((2, 2, 1), dtype=np.int64)
        ref[0, 0], ref[1, 1] = 1, 4
        return oracles.MatrixRep2.from_generators(d4, F5, {1: rot, 4: ref}, name="d4std")
    return s3_faithful_rep({"s3f5": F5, "s3f7": F7, "s3f25": F25}[name])


_REP_CASES = ["diag-field", "diag-zmod", "triangular", "dihedral", "s3f5", "s3f7", "s3f25"]
# (which array, flat position, delta; delta 0 zeroes the whole row or image)
_EDITS = st.lists(st.tuples(st.sampled_from(["t", "d"]), st.integers(0, 10**6), st.integers(0, 6)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_REP_CASES), _EDITS, st.sampled_from([1, 3, 10]))
def test_stacked_validate_matches_the_per_element_loop(case, edits, max_failures):
    """Corrupted traces and determinants give the loop's exact failure
    list, order and truncation included; intact pairs pass both."""
    psr = oracles.psi_of_rep(_rep_case(case))
    arrays = {"t": psr.t.copy(), "d": psr.d.copy()}
    for name, where, delta in edits:
        arr = arrays[name]
        if delta == 0:
            arr[(where // arr.shape[1]) % arr.shape[0]] = 0
        else:
            flat = arr.reshape(-1)
            flat[where % flat.size] = (flat[where % flat.size] + delta) % psr.ring.char
    bad = psrep.Pseudorep2(psr.group, psr.ring, arrays["t"], arrays["d"], name="bad")
    assert psrep.validate_pseudorep(bad, max_failures) == _loop_validate(bad, max_failures)
    if not edits:
        assert _loop_validate(bad)["ok"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_REP_CASES), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 6)), max_size=3))
def test_stacked_rep_check_raises_the_loop_first_message(case, edits):
    """Corrupted images fail `MatrixRep2.check` with the message the loop
    meets first; a zeroed image is never invertible."""
    rep = _rep_case(case)
    images = rep.images.copy()
    for where, delta in edits:
        if delta == 0:
            images[where % len(images)] = 0
        else:
            flat = images.reshape(-1)
            flat[where % flat.size] = (flat[where % flat.size] + delta) % rep.ring.char
    bad = oracles.MatrixRep2(rep.group, rep.ring, images, name="bad")
    try:
        bad.check()
        got = None
    except InvariantViolation as exc:
        got = str(exc)
    assert got == _loop_check_failure(bad)
    if not edits:
        assert got is None


def test_char_poly_is_cayley_hamilton_for_reps():
    rep = s3_faithful_rep(F7)
    psr = oracles.psi_of_rep(rep)
    r = F7
    for g in rep.group.elements():
        c0, c1, _ = oracles.char_poly_at(psr, g)
        mat = rep.of(g)
        sq = rep.matmul(mat, mat)
        for i in range(2):
            for j in range(2):
                acc = r.add(sq[i, j], r.mul(c1, mat[i, j]))
                if i == j:
                    acc = r.add(acc, c0)
                assert not acc.any()


def test_base_change():
    c4 = groups.cyclic_group(4)
    chi = groups.cyclic_char(c4, Z25, 1, np.array([7]))  # 7^4 = 2401 = 1 mod 25
    psr = psrep.psrep_from_chars(chi, groups.trivial_char(c4, Z25))
    psr.check()
    red = rings.RingMap(Z25, F5, np.array([[1]]), name="mod5")
    down = psrep.psrep_base_change(psr, red)
    down.check()
    assert down.t[1].tolist() == [(7 + 1) % 5]


# ---- matrix representation plumbing ---------------------------------


def test_rep_generator_fill_rejects_inconsistency():
    c2 = groups.cyclic_group(2)
    bad = np.zeros((2, 2, 1), dtype=np.int64)
    bad[0, 0] = 2  # 2^2 = 4 != 1: not an involution
    bad[1, 1] = 1
    with pytest.raises(InvariantViolation):
        oracles.MatrixRep2.from_generators(c2, F5, {1: bad})


def test_rep_generator_fill_requires_generation():
    c4 = groups.cyclic_group(4)
    sq = np.zeros((2, 2, 1), dtype=np.int64)
    sq[0, 0] = 4
    sq[1, 1] = 4  # image of g^2 only
    with pytest.raises(InputError):
        oracles.MatrixRep2.from_generators(c4, F5, {2: sq})


def test_diag_rep_from_chars():
    c4 = groups.cyclic_group(4)
    chi1 = groups.cyclic_char(c4, F5, 1, np.array([2]))
    chi2 = groups.cyclic_char(c4, F5, 1, np.array([3]))
    rep = oracles.rep_from_chars(chi1, chi2)
    psr = oracles.psi_of_rep(rep)
    psr.check()
    assert psr.t[1].tolist() == [0]  # 2 + 3
    assert psr.d[1].tolist() == [1]  # 2 * 3


@pytest.mark.parametrize("ring", [F5, F7, Z25, F25], ids=lambda r: r.name)
def test_scenario_psreps_are_the_trace_and_determinant_of_their_matrices(ring):
    """The scenarios build "s3_standard" and "triangular" from (t, d) alone;
    each must be the pair of the representation it names."""
    std = scenarios._build_psrep({"kind": "s3_standard"}, groups.symmetric_3(), ring)
    want = oracles.psi_of_rep(s3_faithful_rep(ring))
    assert np.array_equal(std.t, want.t) and np.array_equal(std.d, want.d)
    c4 = groups.cyclic_group(4)
    chi1 = {"kind": "power", "gen": 1, "value": ring.char - 1}
    tri = scenarios._build_psrep({"kind": "triangular", "chi1": chi1, "chi2": {"kind": "trivial"}}, c4, ring)
    chars = (scenarios._build_char(chi1, c4, ring), groups.trivial_char(c4, ring))
    want = oracles.psi_of_rep(oracles.unipotent_conjugate(oracles.rep_from_chars(*chars)))
    assert np.array_equal(tri.t, want.t) and np.array_equal(tri.d, want.d)


def test_stacked_matmul_matches_the_per_entry_loop():
    ring = rings.truncated_poly_ring(rings.zmod_ring(5, 2), 3)
    rep = oracles.MatrixRep2(groups.cyclic_group(1), ring, np.zeros((1, 2, 2, ring.n)))
    rng = random.Random(5)
    for _ in range(50):
        a, b = (np.array([[oracles.random_element(ring, rng) for _ in range(2)] for _ in range(2)]) for _ in range(2))
        want = np.zeros((2, 2, ring.n), dtype=np.int64)
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    want[i, j] = ring.add(want[i, j], ring.mul(a[i, l], b[l, j]))
        got = rep.matmul(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---- algebra extension ----------------------------------------------


def rho_hat(rep, x):
    """Induced algebra map F[G] -> M2, evaluated at coefficient vector x."""
    r = rep.ring
    out = np.zeros((2, 2, r.n), dtype=np.int64)
    for g in rep.group.elements():
        for blk in range(r.n):
            c = int(x[g * r.n + blk])
            if c:
                e = np.zeros(r.n, dtype=np.int64)
                e[blk] = 1
                for i in range(2):
                    for j in range(2):
                        out[i, j] = r.add(out[i, j], r.smul(c, r.mul(e, rep.of(g)[i, j])))
    return out


def test_extension_matches_trace_and_det_of_rho_hat():
    rep = s3_faithful_rep(F5)
    ext = psrep.extended_forms(oracles.psi_of_rep(rep))
    rng = random.Random(11)
    for _ in range(20):
        x = oracles.random_element(ext.algebra, rng)
        mat = rho_hat(rep, x)
        tr = F5.add(mat[0, 0], mat[1, 1])
        det = F5.sub(F5.mul(mat[0, 0], mat[1, 1]), F5.mul(mat[0, 1], mat[1, 0]))
        assert np.array_equal(ext.t_el(x), tr)
        assert np.array_equal(ext.d_el(x), det)


def test_extension_determinant_is_multiplicative_for_rep_traces():
    rep = s3_faithful_rep(F7)
    ext = psrep.extended_forms(oracles.psi_of_rep(rep))
    rng = random.Random(5)
    for _ in range(15):
        x, y = oracles.random_element(ext.algebra, rng), oracles.random_element(ext.algebra, rng)
        lhs = ext.d_el(ext.algebra.mul(x, y))
        rhs = F7.mul(ext.d_el(x), ext.d_el(y))
        assert np.array_equal(lhs, rhs)


def test_kernel_of_sum_of_trivial_chars_on_c2():
    c2 = groups.cyclic_group(2)
    one = groups.trivial_char(c2, F5)
    ext = psrep.extended_forms(psrep.psrep_from_chars(one, one))
    rows = oracles.kernel_rows(ext)
    # the radical is spanned by 1 - g
    assert linalg.span_log_size(rows, 5, 1) == 1
    assert linalg.span_contains(rows, np.array([1, 4]), 5, 1)


def test_kernel_of_s3_irreducible_trace():
    # F5[S3] = F5 x F5 x M2(F5); the trace form of the 2-dim factor has the
    # two scalar factors as its radical
    ext = psrep.extended_forms(oracles.psi_of_rep(s3_faithful_rep(F5)))
    rows = oracles.kernel_rows(ext)
    assert linalg.span_log_size(rows, 5, 1) == 2
    # idempotent average of the sign-trivial part lies in the radical:
    # e = (1/6) sum_g g and e' = (1/6) sum sgn(g) g
    avg = np.full(6, pow(6, -1, 5), dtype=np.int64) % 5
    assert linalg.span_contains(rows, avg, 5, 1)
    sgn = np.array([1, 1, 1, -1, -1, -1]) * pow(6, -1, 5) % 5
    assert linalg.span_contains(rows, sgn, 5, 1)


def test_trace_radical_matches_the_per_basis_columns():
    """One contraction of the table with the trace gives the radical the
    per-basis `right_mul_matrix` columns give."""
    c4 = groups.cyclic_group(4)
    chi = groups.cyclic_char(c4, Z25, 1, np.array([7]))
    for psr in (oracles.psi_of_rep(s3_faithful_rep(F5)), psrep.psrep_from_chars(chi, groups.trivial_char(c4, Z25))):
        ext = psrep.extended_forms(psr)
        alg, t = ext.algebra, ext.t_matrix
        cols = [(alg.right_mul_matrix(e) @ t) % psr.ring.char for e in np.eye(alg.n, dtype=np.int64)]
        want = linalg.kernel(np.hstack(cols), alg.p, alg.k)
        assert np.array_equal(oracles.kernel_rows(ext), want)


def test_kernel_of_faithful_diag_pair_is_zero():
    c4 = groups.cyclic_group(4)
    chi1 = groups.cyclic_char(c4, F5, 1, np.array([2]))
    chi2 = groups.trivial_char(c4, F5)
    ext = psrep.extended_forms(psrep.psrep_from_chars(chi1, chi2))
    # F5[C4] = F5^4; t = chi1 + chi2 pairs nondegenerately on the two
    # relevant factors and kills the other two
    rows = oracles.kernel_rows(ext)
    assert linalg.span_log_size(rows, 5, 1) == 2


# ---- residual splitting ---------------------------------------------


def test_residual_split_diag_recovers_characters():
    c4 = groups.cyclic_group(4)
    chi1 = groups.cyclic_char(c4, F5, 1, np.array([2]))
    chi2 = groups.trivial_char(c4, F5)
    psr = psrep.psrep_from_chars(chi1, chi2)
    out = psrep.residual_split(psr)
    assert out["split"] and not out["unsupported"]
    got = {tuple(int(v[0]) for v in (c(g) for g in c4.elements())) for c in out["chars"]}
    assert got == {(1, 2, 4, 3), (1, 1, 1, 1)}


def test_residual_split_equal_characters():
    c2 = groups.cyclic_group(2)
    one = groups.trivial_char(c2, F5)
    out = psrep.residual_split(psrep.psrep_from_chars(one, one))
    assert out["split"]
    a, b = out["chars"]
    for g in c2.elements():
        assert np.array_equal(a(g), b(g))


def test_residual_split_irreducible_flags_unsupported():
    psr = oracles.psi_of_rep(c3_irreducible_rep(F5))
    out = psrep.residual_split(psr)
    assert not out["split"] and out["unsupported"]
    assert "irreducible" in out["reason"]


def test_residual_split_pointwise_but_inconsistent():
    # over F7 every element image splits, but S3 has no faithful character pair
    psr = oracles.psi_of_rep(s3_faithful_rep(F7))
    out = psrep.residual_split(psr)
    assert not out["split"] and out["unsupported"]
    assert "multiplicative" in out["reason"]


def test_residual_split_after_extension():
    # the C3 trace splits once the coefficients grow to F25
    rep25 = c3_irreducible_rep(F25)
    out = psrep.residual_split(oracles.psi_of_rep(rep25))
    assert out["split"]
    chi1, chi2 = out["chars"]
    for g in range(3):
        assert np.array_equal(F25.mul(chi1(g), chi2(g)), oracles.psi_of_rep(rep25).d[g])


def test_residual_split_rejects_nonfield():
    c2 = groups.cyclic_group(2)
    one = groups.trivial_char(c2, Z25)
    with pytest.raises(InputError):
        psrep.residual_split(psrep.psrep_from_chars(one, one))
