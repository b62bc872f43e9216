"""The ordinarity decision on one stack, against the loop it replaced.

`ordinary.is_ordinary_ch` lifts all of its residual candidates as one
stack, reads J_R = 0 for all of them with one contraction, and checks
their structure with one `gma._check_gma_stack`.  The reference below is
the per-candidate loop it replaced, kept here: one Newton lift, one
`gma_decompose` and one J_R contraction over the `p12`/`phi1` generators
per candidate, in order.  Both must give the same result dict, or raise
the same error with the same message.

`gma_decompose`, and `oracles.abstract_gma` through it, build their
GmaAlgebra from one row of that stacked check.  `ref_gma_decompose` below is the Howell path they
replaced, kept here: the two corners factored, phi and the pairing table
solved for, B and C as Howell forms, then reassembly, the determinant
formula and the log-size fill count.  The stacked check must pass where
the reference passes and fail where it fails, with its message, and every
GmaAlgebra field must equal the reference's.  The stacked lift must give
each row's single lift and iteration count; and the stacked
`oracles.random_element` must give the values, and leave the state, of
single `randrange` draws.
"""

import copy
import dataclasses
import random
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from test_gma import s3_irr_psrep
from test_ordinary import T2, _jr_cases, d4_rep, d5_t2_psrep
from test_ordinary_decisions import _counter, _s3_f7, decision_units

from exalg import algebras, gma, groups, linalg, ordinary, psrep, rings, scenarios
from exalg.errors import BudgetExceeded, InputError, InvariantViolation

ERRORS = (InputError, BudgetExceeded, InvariantViolation)
Z49 = rings.zmod_ring(7, 2)
Z343 = rings.zmod_ring(7, 3)
F5 = rings.zmod_ring(5, 1)
T3 = rings.truncated_poly_ring(F5, 3, name="T3")

# ---- the Howell-path GMA reference ---------------------------------


def _ref_raise_first(checks):
    """Raise at the first row where one of the (ok-per-row, message) checks
    fails, with the message of the first check failing there."""
    bad = ~np.logical_and.reduce([ok for ok, _ in checks])
    if bad.any():
        row = int(np.argmax(bad))
        raise InvariantViolation(next(msg for ok, msg in checks if not ok[row]))


def _ref_reassembles(g, xs, x11, x12, x21, x22):
    """Per row: x11 e1 + x12 + x21 + x22 e2 == xs, corners as base scalars."""
    al = g.algebra
    corners = al.mul(al.scalar(x11), g.e1) + al.mul(al.scalar(x22), g.e2)
    return ((corners + x12 + x21) % al.char == xs).all(axis=1)


def _ref_verify_gma(g):
    """Log-size fill count, reassembly and the determinant formula on every basis vector."""
    al, a = g.algebra, g.base
    logs = 2 * a.k * a.n + linalg.span_log_size(g.b_basis, a.p, a.k) + linalg.span_log_size(g.c_basis, a.p, a.k)
    if al.k * al.n != logs:
        raise InvariantViolation("Peirce pieces do not fill the algebra")
    eye = np.eye(al.n, dtype=np.int64)
    phi1, phi2, x12, x21 = g.phi1, g.phi2, g.p12, g.p21
    tx, tx2 = ((g.phi1_of(y) + (y @ g.phi2) % g.base.char) % a.char for y in (eye, al.mul(eye, eye)))
    want = (pow(2, -1, a.char) * (a.mul(tx, tx) - tx2)) % a.char
    got = (a.mul(phi1, phi2) - g.phi1_of(al.mul(x12, x21))) % a.char
    checks = [
        (_ref_reassembles(g, eye, phi1, x12, x21, phi2), "Peirce reassembly fails"),
        ((got == want).all(axis=1), "determinant does not match its corner formula"),
    ]
    if g.ch is not None:
        checks.append(((want == g.ch.d_el(eye)).all(axis=1), "corner determinant disagrees with the descended one"))
    _ref_raise_first(checks)


def ref_gma_structure(algebra, ch, e1):
    """Peirce data of e1 from the two factored corners and Howell forms of B and C."""
    al, a = algebra, algebra.base
    if al.n == 0:
        raise InputError("cannot decompose the zero algebra")
    e1 = np.asarray(e1, dtype=np.int64) % al.char
    e2 = al.sub(al.one, e1)
    if not np.array_equal(al.mul(e1, e1), e1):
        raise InputError("e1 is not idempotent")
    if al.mul(e1, e2).any() or al.mul(e2, e1).any():
        raise InvariantViolation("complementary idempotents are not orthogonal")
    lm1, rm1 = al.mul_matrix(e1), al.right_mul_matrix(e1)
    lm2, rm2 = al.mul_matrix(e2), al.right_mul_matrix(e2)
    p11, p12 = (lm1 @ rm1) % al.char, (lm1 @ rm2) % al.char
    p21, p22 = (lm2 @ rm1) % al.char, (lm2 @ rm2) % al.char
    eye_a = np.eye(a.n, dtype=np.int64)
    ae1, ae2 = al.amul(eye_a, e1), al.amul(eye_a, e2)
    span1, span2 = (linalg.FactoredSpan.factor(mat, a.p, a.k, ncols=al.n) for mat in (ae1, ae2))
    for span, corner in ((span1, p11), (span2, p22)):
        if span.kernel.shape[0]:
            raise InvariantViolation("scalar corner is not free of rank one")
        if not linalg.span_equal(linalg.howell_form(corner, a.p, a.k, ncols=al.n), span.h):
            raise InvariantViolation("corner does not reduce to base scalars")
    phi1, ok1 = span1.solve(p11)
    phi2, ok2 = span2.solve(p22)
    if not (ok1.all() and ok2.all()):
        raise InvariantViolation("corner projection escaped the scalar corner")
    b_basis = linalg.howell_form(p12, a.p, a.k, ncols=al.n)
    c_basis = linalg.howell_form(p21, a.p, a.k, ncols=al.n)
    m_table, ok = span1.solve(al.mul_outer(b_basis, c_basis))
    if not ok.all():
        raise InvariantViolation("a B*C product escaped the first corner")
    swap, ok = span2.solve(al.mul_outer(c_basis, b_basis).transpose(1, 0, 2))
    if not ok.all() or not np.array_equal(swap, m_table):
        raise InvariantViolation("pairing is not symmetric across the corners")
    g = gma.GmaAlgebra(al, ch, e1, e2, phi1, phi2, b_basis, c_basis, m_table, p12, p21)
    _ref_verify_gma(g)
    return g


def ref_gma_decompose(ch, e1):
    """The Howell-path decomposition: unit traces, `ref_gma_structure`, trace split."""
    e1 = np.asarray(e1, dtype=np.int64) % ch.algebra.char
    if not np.array_equal(ch.algebra.mul(e1, e1), e1):
        raise InputError("e1 is not idempotent")
    for e in (e1, ch.algebra.sub(ch.algebra.one, e1)):
        if not np.array_equal(ch.t_el(e), ch.base.one):
            raise InvariantViolation("corner idempotent must have unit trace")
    g = ref_gma_structure(ch.algebra, ch, e1)
    if not np.array_equal((g.phi1 + g.phi2) % ch.base.char, ch.t_matrix % ch.base.char):
        raise InvariantViolation("trace does not split as the sum of the corners")
    return g


# ---- the per-candidate reference ------------------------------------


def ref_newton_lift(ch, target):
    """One residual idempotent lifted on its own, as before the stack, from
    the Howell solve of the residual projection factored here, not from
    the section the quotient keeps."""
    al, down = ch.algebra, ch.residual.ch
    proj = down.quot.proj.matrix
    x, ok = linalg.FactoredSpan.factor(proj, al.p, down.algebra.k).solve(target)
    if not ok:
        raise InvariantViolation("residual idempotent has no preimage")
    x = x % al.char
    iters = 0
    while not np.array_equal(al.mul(x, x), x):
        x2 = al.mul(x, x)
        x = al.sub(al.smul(3, x2), al.smul(2, al.mul(x2, x)))
        iters += 1
        if iters > gma._NEWTON_MAX_ITER:
            raise InvariantViolation("idempotent iteration failed to converge")
    if not np.array_equal((x @ proj) % down.algebra.char, target):
        raise InvariantViolation("lifted idempotent drifted from its residual class")
    return x, iters


def ref_j_r_is_zero(g, kappa):
    """J_R = 0 read off the generators e1 rho e2 on Dp and
    (phi1(rho) - kappa^-1) e1 on Ip of a decomposed GMA."""
    ch = g.ch
    al, a, grp = ch.algebra, ch.base, ch.psr.group
    dp, ip = list(grp.dp), list(grp.ip)
    off = (ch.rho_mat[dp] @ g.p12) % al.char
    kinv = np.array([kappa.inv_value(h) for h in ip], dtype=np.int64).reshape(len(ip), a.n)
    corner = al.amul((g.phi1_of(ch.rho_mat[ip]) - kinv) % a.char, g.e1)
    gens = np.vstack([off, corner])
    return not ((al.mul_matrix(gens) @ ch.t_matrix) % a.char).any()


def ref_is_ordinary_ch(ch, kappa, budget=400000):
    """The decision as a loop: lift, decompose and test one candidate at a time."""
    ordinary._require_decidable(ch.psr)
    ordinary._check_kappa(ch, kappa)
    res = ch.residual
    case = res.split["case"]
    if case == "irreducible":
        return {"supported": False, "ordinary": None, "reason": res.split["reason"], "checked": 0}
    chis = None
    if case == "split":
        chis = [chi for chi in res.split["chars"] if ordinary._kappa_inverse_on_inertia(res, kappa)(chi)]
        if not chis:
            reason = "no residual character matches kappa^-1 on inertia"
            return {"supported": True, "ordinary": False, "reason": reason, "checked": 0}
    targets, reason = gma._residual_targets(res, chis, budget)
    if reason:
        return {"supported": False, "ordinary": None, "reason": reason, "checked": 0}
    for tried, target in enumerate(targets, 1):
        e1, _ = ref_newton_lift(ch, target)
        g = ref_gma_decompose(ch, e1)
        if ref_j_r_is_zero(g, kappa):
            return {
                "supported": True,
                "ordinary": True,
                "reason": "",
                "checked": tried if chis is None else len(targets),
                "witness": {
                    "e1": [int(c) for c in e1],
                    "alignment": ordinary._residual_corner_alignment(ch, g.phi1, g.phi2, kappa),
                },
            }
    if chis is None:
        reason = "ordinary base ideal is nonzero for every residual corner"
    else:
        reason = "ordinary base ideal is nonzero for every aligned corner"
    return {"supported": True, "ordinary": False, "reason": reason, "checked": len(targets)}


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ERRORS as e:
        return {"raised": type(e).__name__, "message": str(e)}


# ---- the cases ------------------------------------------------------


def _d5_reflection_cases():
    """D5 over T2 with Dp = Ip one reflection <r^j s>, or <1>; kappa = 1 and
    kappa(s) = -1."""
    for j in range(5):
        psr = d5_t2_psrep((0, 5 + j), (0, 5 + j))
        yield psr, groups.trivial_char(psr.group, T2, domain=(0, 5 + j), name="k")
        yield psr, groups.cyclic_char(psr.group, T2, 5 + j, T2.from_int(-1), name="k-")
    psr = d5_t2_psrep((0,), (0,))
    yield psr, groups.trivial_char(psr.group, T2, domain=(0,), name="k")


def _named_cases():
    """(psr, kappa) of the hand-built families: S3 over F5 and F7, C4, D4
    (the faithful representation) and D5 over T2."""
    for psr, kappas in _jr_cases():
        for kappa in kappas:
            yield psr, kappa
    d4 = psrep.psi_of_rep(d4_rep(tuple(range(8)), tuple(range(8))))
    yield d4, groups.trivial_char(d4.group, d4.ring, domain=range(8), name="k")
    yield d4, groups.cyclic_char(d4.group, d4.ring, 4, d4.ring.from_int(-1), name="k-")
    yield from _d5_reflection_cases()


def _unit_cases(tmp_path):
    """(psr, kappa, budget) of every decision unit whose psrep builds."""
    for _, doc in decision_units(tmp_path):
        state = scenarios._State(scenarios.load_scenario(doc))
        try:
            yield state.psr, state.kappa, state.sc.budget
        except ERRORS:
            continue


def _quotients(cases):
    """(ch, kappa, budget) for each case whose Cayley-Hamilton quotient builds."""
    for psr, kappa, budget in cases:
        try:
            ordinary._require_decidable(psr)
            ch = gma.ch_quotient(psr)
        except ERRORS:
            continue
        yield ch, kappa, budget


def test_stacked_decision_matches_the_loop(tmp_path):
    cases = list(_unit_cases(tmp_path)) + [(psr, kappa, 400000) for psr, kappa in _named_cases()]
    seen = {"ordinary": 0, "not ordinary": 0, "other": 0}
    for ch, kappa, budget in _quotients(cases):
        got = outcome(ordinary.is_ordinary_ch, ch, kappa, budget)
        assert got == outcome(ref_is_ordinary_ch, ch, kappa, budget)
        key = {True: "ordinary", False: "not ordinary"}.get(got.get("ordinary"), "other")
        seen[key] += 1
    assert seen["ordinary"] >= 30 and seen["not ordinary"] >= 30 and seen["other"] >= 5


# ---- the stacked lift ------------------------------------------------


@pytest.mark.parametrize("psr", [s3_irr_psrep(Z49), s3_irr_psrep(Z343), d5_t2_psrep((0, 5), (0, 5))],
                         ids=["s3-z49", "s3-z343", "d5-t2"])
def test_stacked_lift_matches_single_lifts(psr):
    """Every residual trace-1 idempotent, lifted as one stack and one at a
    time: the rows take 1, 2, and 0 or 1 Newton steps."""
    ch = gma.ch_quotient(psr)
    targets = ch.residual.idempotents
    stacked, iters = gma._newton_lift(ch, targets)
    assert stacked.shape == (len(targets), ch.nbar) and iters.max() > 0
    for target, e, n in zip(targets, stacked, iters):
        want, want_n = ref_newton_lift(ch, target)
        assert np.array_equal(e, want) and n == want_n
        single, single_n = gma._newton_lift(ch, target)
        assert np.array_equal(single, want) and single_n == want_n


# ---- the stacked structure check -------------------------------------


def _candidates(ch):
    """Every lifted residual trace-1 idempotent of ch, or [] without one."""
    try:
        idems = ch.residual.idempotents if ch.residual.split["case"] != "irreducible" else []
    except ERRORS:
        return []
    return list(gma._newton_lift(ch, idems)[0]) if idems else []


def test_stacked_check_passes_with_gma_decompose(tmp_path):
    cases = list(_unit_cases(tmp_path)) + [(psr, kappa, 400000) for psr, kappa in _named_cases()]
    rows = 0
    for ch, _, _ in _quotients(cases):
        cands = _candidates(ch)
        for e in cands:
            ref_gma_decompose(ch, e)
        if cands:
            gma._check_gma_stack(ch, np.array(cands))
            rows += len(cands)
    assert rows > 1000


def _s3_candidate():
    psr, _ = _s3_f7()
    ch = gma.ch_quotient(psr)
    e = gma._newton_lift(ch, ch.residual.idempotents[0])[0]
    return ch, e, ref_gma_decompose(ch, e)


def _with_one(ch, one):
    """A copy of ch whose algebra claims `one` as its unit."""
    al = copy.copy(ch.algebra)
    al.one = np.asarray(one, dtype=np.int64) % al.char
    return dataclasses.replace(ch, algebra=al)


def _m3_corner_case():
    """M3(F7) with e1 = E11 + E22: corner 1 is M2, not the base times e1."""
    ch, _, _ = _s3_candidate()
    al = algebras.matrix_algebra(ch.base, 3)
    t = np.zeros((9, 1), dtype=np.int64)
    t[0], t[8] = 1, 1  # t(E11) = t(E33) = 1, so t(e1) = t(e2) = 1
    e = np.zeros(9, dtype=np.int64)
    e[0], e[4] = 1, 1
    return dataclasses.replace(ch, algebra=al, t_matrix=t), e


def _unfilled_case():
    """M2(F7) x F7 claiming (1, 0) as its unit: the Peirce pieces of
    e1 = (E11, 0) miss the F7 factor."""
    ch, _, _ = _s3_candidate()
    m2 = algebras.matrix_algebra(ch.base, 2)
    table = np.zeros((5, 5, 5), dtype=np.int64)
    table[:4, :4, :4] = m2.table
    table[4, 4, 4] = 1
    al = algebras.AssocAlgebra(7, 1, table, [1, 0, 0, 1, 1], ch.base, [[1, 0, 0, 1, 1]], name="M2xF7")
    al.check_algebra()
    al.one = np.array([1, 0, 0, 1, 0], dtype=np.int64)
    t = np.array([[1], [0], [0], [1], [0]], dtype=np.int64)
    return dataclasses.replace(ch, algebra=al, t_matrix=t), np.array([1, 0, 0, 0, 0], dtype=np.int64)


def _provocations():
    """(message, ch, row) where `ref_gma_decompose(ch, row)` must raise message."""
    ch, e, g = _s3_candidate()
    al, c = ch.algebra, ch.algebra.char
    yield "e1 is not idempotent", ch, al.smul(2, e)
    yield "corner idempotent must have unit trace", ch, al.one
    # a unit shifted by b in B: 1 - e1 keeps trace 1 but meets e1
    yield "complementary idempotents are not orthogonal", _with_one(ch, al.one + g.b_basis[0]), e
    yield ("corner does not reduce to base scalars", *_m3_corner_case())
    # a unit shifted by e2 and a trace halved on corner 2: both corners
    # still follow their rule, but the two pairings differ by a factor 2
    half = _with_one(ch, al.one + g.e2)
    half = dataclasses.replace(half, t_matrix=(g.phi1 + pow(2, -1, c) * g.phi2) % c)
    yield "pairing is not symmetric across the corners", half, e
    yield ("Peirce pieces do not fill the algebra", *_unfilled_case())
    # a trace moved off the corners, by the first coordinate of e1 x e2: the
    # determinant it induces changes
    moved = dataclasses.replace(ch, t_matrix=(ch.t_matrix + g.p12[:, :1]) % c)
    yield "corner determinant disagrees with the descended one", moved, e
    # the same trace with the determinant kept: only the trace split fails
    kept = dataclasses.replace(moved)
    kept.d_el = ch.d_el
    yield "trace does not split as the sum of the corners", kept, e


@pytest.mark.parametrize("message", [m for m, _, _ in _provocations()])
def test_stacked_check_raises_each_message_with_gma_decompose(message):
    _, ch, row = next(p for p in _provocations() if p[0] == message)
    err = InputError if message == "e1 is not idempotent" else InvariantViolation
    with pytest.raises(err) as single:
        ref_gma_decompose(ch, row)
    with pytest.raises(err) as stacked:
        gma._check_gma_stack(ch, np.array([row]))
    assert type(single.value) is type(stacked.value) is err
    assert str(single.value) == str(stacked.value) == message


def test_stacked_check_raises_at_the_first_failing_row():
    ch, e, _ = _s3_candidate()
    al = ch.algebra
    gma._check_gma_stack(ch, np.array([e, e]))
    with pytest.raises(InvariantViolation, match="unit trace"):
        gma._check_gma_stack(ch, np.array([e, al.one, al.smul(2, e)]))
    with pytest.raises(InputError, match="not idempotent"):
        gma._check_gma_stack(ch, np.array([e, al.smul(2, e), al.one]))


# ---- one structure path against the Howell reference ------------------


def _same_gma(got, want):
    """Every GmaAlgebra field equal: the same algebra and ch, and equal arrays."""
    for field in dataclasses.fields(gma.GmaAlgebra):
        x, y = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("algebra", "ch"):
            assert x is y, field.name
        else:
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), field.name


def _matches_reference(ch, e):
    """`gma_decompose(ch, e)` gives the reference's fields, or its error."""
    got, want = outcome(gma.gma_decompose, ch, e), outcome(ref_gma_decompose, ch, e)
    if isinstance(want, dict):
        assert got == want
    else:
        _same_gma(got, want)


def test_gma_decompose_matches_the_howell_reference(tmp_path):
    cases = list(_unit_cases(tmp_path)) + [(psr, kappa, 400000) for psr, kappa in _named_cases()]
    rows = 0
    for ch, _, _ in _quotients(cases):
        for e in _candidates(ch):
            _matches_reference(ch, e)
            rows += 1
    assert rows > 1000
    for message, ch, row in _provocations():
        _matches_reference(ch, row)
        assert outcome(gma.gma_decompose, ch, row)["message"] == message


@pytest.mark.parametrize("base, mu", [(F5, F5.one), (T3, [0, 1, 0]), (rings.truncated_poly_ring(F5, 2), [0, 1])],
                         ids=["f5", "t3", "f5-t2"])
def test_abstract_gma_matches_the_howell_reference(base, mu):
    g = oracles.abstract_gma(base, np.array(mu))
    e1 = np.zeros(4 * base.n, dtype=np.int64)
    e1[: base.n] = base.one
    assert g.ch is None
    _same_gma(g, ref_gma_structure(g.algebra, None, e1))


# ---- one enumeration of the residual idempotents ---------------------


def test_residual_idempotents_are_enumerated_once(monkeypatch):
    psr, kappa = _s3_f7()
    ch = gma.ch_quotient(psr)
    counts = {}
    _counter(monkeypatch, gma, "_trace_one_idempotents", counts, "enumerations")
    gma.lift_idempotents(ch)
    assert ordinary.is_ordinary_ch(ch, kappa)["checked"] == 56
    assert counts == {"enumerations": 1}
    size = ch.residual.ch.algebra.size
    want = f"ring has {size} elements, limit {size - 1}"
    with pytest.raises(BudgetExceeded) as lift:
        gma.lift_idempotents(ch, budget=size - 1)
    with pytest.raises(BudgetExceeded) as decide:
        ordinary.is_ordinary_ch(ch, kappa, size - 1)
    assert str(lift.value) == str(decide.value) == want
    assert counts == {"enumerations": 1}


# ---- one block of random bits -----------------------------------------


@pytest.mark.parametrize("char", [2, 3, 5, 7, 25, 49, 125, 343, 5**9, 2_097_143])
def test_random_element_reads_the_randrange_stream(char):
    # char 2 is no ring modulus here; the draw reads only n and char
    ring = SimpleNamespace(n=3, char=char)
    if char > 2:
        p = next(q for q in range(3, char + 1) if char % q == 0)
        ring = rings.zmod_ring(p, {p ** k: k for k in range(1, 20)}[char])
    for count in (None, 0, 1, 5, 700):
        ours, singles = random.Random(char), random.Random(char)
        got = oracles.random_element(ring, ours, count)
        shape = (ring.n,) if count is None else (count, ring.n)
        want = np.array([singles.randrange(char) for _ in range(int(np.prod(shape)))], dtype=np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, want.reshape(shape))
        assert ours.getstate() == singles.getstate()
        assert ours.randrange(char) == singles.randrange(char)
