"""Spans the algebra already fixes, built in one step, against the
constructions they replaced.

Each reference below is the earlier construction: the iterate-to-fixpoint
`howell_closure` with the old orbit step, the (n x |basis| n) annihilator
kernel, the presentation of I/I^2 as a module, the per-row Nakayama loop
and the per-basis-element `one` check.  The Howell form is canonical, so
every comparison is bit-for-bit.
"""

import sys

import numpy as np
import oracles
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from exalg import algebras, groups, linalg, modules, rings, towers
from exalg.errors import InvariantViolation

# ---- the earlier constructions -------------------------------------


def old_orbit(r, rows, g=1):
    blocks = np.asarray(rows, dtype=np.int64).reshape(-1, g, r.n)
    return (np.einsum("rgi,ijl->jrgl", blocks, r.table) % r.char).reshape(-1, g * r.n)


def old_ideal_basis(r, gens):
    rows = np.asarray(gens, dtype=np.int64).reshape(-1, r.n) % r.char
    return oracles.howell_closure(rows, r.p, r.k, r.n, lambda h: old_orbit(r, h))


def old_module_relations(r, pres):
    rels, g, n = pres.shape
    rows = pres.reshape(rels, g * n) % r.char
    return oracles.howell_closure(rows, r.p, r.k, g * n, lambda h: old_orbit(r, h, g))


def old_minimal_generator_count(mod):
    r = mod.ring
    m = r.maximal_ideal()
    width = mod.g * r.n
    extra = []
    for row in m.basis:
        mat = r.mul_matrix(row)
        for j in range(mod.g):
            blk = np.zeros((r.n, width), dtype=np.int64)
            blk[:, j * r.n : (j + 1) * r.n] = mat
            extra.append(blk)
    rows = np.vstack([mod.relations] + extra) if extra else mod.relations
    h = linalg.howell_form(rows, r.p, r.k, ncols=width)
    return (mod.g * r.n * r.k - linalg.span_log_size(h, r.p, r.k)) // r.residue_log_size


def old_two_sided(alg, gens):
    n = alg.n
    rows = np.asarray(gens, dtype=np.int64).reshape(-1, n) % alg.char

    def left_and_right(h):
        left = np.einsum("ri,ail->ral", h, alg.table).reshape(-1, n) % alg.char
        return np.vstack([left, old_orbit(alg, h)])

    return oracles.howell_closure(rows, alg.p, alg.k, n, left_and_right)


def old_annihilator_basis(ideal):
    r = ideal.ring
    kern = linalg.kernel(np.hstack(r.mul_matrix(ideal.basis)), r.p, r.k)
    return linalg.howell_form(kern, r.p, r.k, ncols=r.n)


def old_min_module_rows(ring, rows, g):
    width = g * ring.n
    full = linalg.howell_form(rows, ring.p, ring.k, ncols=width)
    if full.shape[0] == 0:
        return np.zeros((0, width), dtype=np.int64)
    m = ring.maximal_ideal()
    if m.basis.shape[0]:
        blocks = full.reshape(-1, g, ring.n)
        mk = np.einsum("rgi,bij->brgj", blocks, ring.mul_matrix(m.basis)).reshape(-1, width) % ring.char
        mk = linalg.howell_form(mk, ring.p, ring.k, ncols=width)
    else:
        mk = np.zeros((0, width), dtype=np.int64)
    sel = []
    cur = mk
    for row in full:
        if not linalg.span_contains(cur, row, ring.p, ring.k):
            sel.append(row)
            orb = old_orbit(ring, np.array(sel, dtype=np.int64), g)
            cur = linalg.howell_form(np.vstack([orb, mk]), ring.p, ring.k, ncols=width)
    return np.array(sel, dtype=np.int64)


def old_check_ring(r, rng_seed=0, full_limit=20):
    n, t = r.n, r.table
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        if not np.array_equal(r.mul(r.one, e), e):
            raise InvariantViolation(f"one fails on basis {i}")
    if not np.array_equal(t, t.transpose(1, 0, 2)):
        raise InvariantViolation("structure constants are not commutative")
    old_check_associativity(r, rng_seed, full_limit)


def old_check_associativity(r, rng_seed, full_limit):
    n, t, m = r.n, r.table, r.char
    if n <= full_limit:
        if not np.array_equal(np.einsum("ijx,xlm->ijlm", t, t) % m, np.einsum("jlx,ixm->ijlm", t, t) % m):
            raise InvariantViolation("associativity fails")
        return
    a, b, c = np.random.default_rng(rng_seed).integers(0, m, size=(3, 200, n))
    left_a = r.mul_matrix(a)
    right_c = np.tensordot(c, t, axes=(1, 1)) % m

    def prod(xs, mats):
        return np.matmul(xs[:, None, :], mats)[:, 0] % m

    if not np.array_equal(prod(prod(b, left_a), right_c), prod(prod(b, right_c), left_a)):
        raise InvariantViolation("associativity fails on sample")


def outcome(check, *args):
    """The message `check` raises, or None when it passes."""
    try:
        check(*args)
    except InvariantViolation as e:
        return str(e)
    return None


# ---- small rings and algebras ----------------------------------------


def _small_rings():
    out = []
    for p in (3, 5, 7):
        for k in (1, 2):
            z = rings.zmod_ring(p, k)
            t2, t3 = rings.truncated_poly_ring(z, 2), rings.truncated_poly_ring(z, 3)
            out += [z, t3, rings.product_ring(t2, t3), rings.truncated_poly_ring(t2, 2)]
        fp = rings.zmod_ring(p, 1)
        out += [rings.truncated_poly_ring(fp, 6), rings.truncated_poly_ring(rings.field_ring(p, 2), 3)]
    return out


SMALL_RINGS = _small_rings()


def _small_algebras():
    out = []
    for p in (3, 5, 7):
        fp = rings.zmod_ring(p, 1)
        out += [
            algebras.matrix_algebra(fp, 2),
            algebras.matrix_algebra(rings.zmod_ring(p, 2), 2),
            oracles.abstract_gma(rings.truncated_poly_ring(fp, 2), np.array([0, 1])).algebra,
            algebras.group_algebra(fp, groups.symmetric_3()),
        ]
    return out


SMALL_ALGEBRAS = _small_algebras()


def draw_rows(data, r, count, width=None):
    width = r.n if width is None else width
    vals = st.lists(st.integers(0, r.char - 1), min_size=width, max_size=width)
    rows = data.draw(st.lists(vals, min_size=count[0], max_size=count[1]))
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def test_small_rings_cover_the_cases():
    assert all(r.n <= 6 and r.k <= 2 for r in SMALL_RINGS)
    assert {r.p for r in SMALL_RINGS} == {3, 5, 7}
    assert any(not r.is_local for r in SMALL_RINGS)  # the product rings
    assert any(r.is_local and r.residue_log_size == 2 for r in SMALL_RINGS)


# ---- one-orbit closures ----------------------------------------------


@seed(8101)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ideal_closure_is_one_orbit(data):
    r = data.draw(st.sampled_from(SMALL_RINGS))
    gens = draw_rows(data, r, (0, 3))
    assert np.array_equal(rings.Ideal(r, gens).basis, old_ideal_basis(r, gens))


@seed(8102)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_module_presentation_is_one_orbit(data):
    r = data.draw(st.sampled_from(SMALL_RINGS))
    g = data.draw(st.integers(1, 2))
    pres = draw_rows(data, r, (1, 3), g * r.n).reshape(-1, g, r.n)
    mod = oracles.FinModule.from_presentation(r, pres)
    assert np.array_equal(mod.relations, old_module_relations(r, pres))
    if r.is_local:
        assert mod.minimal_generator_count() == old_minimal_generator_count(mod)


@seed(8103)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_two_sided_ideal_is_left_then_right(data):
    alg = data.draw(st.sampled_from(SMALL_ALGEBRAS))
    gens = draw_rows(data, alg, (1, 2))
    assert np.array_equal(algebras.two_sided_ideal_rows(alg, gens), old_two_sided(alg, gens))


def test_radicals_need_no_closure():
    for r in SMALL_RINGS:
        assert np.array_equal(r.radical_ideal().basis, old_ideal_basis(r, r.radical_rows())), r.name


# ---- annihilators over n columns ---------------------------------------


@seed(8104)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_annihilator_over_n_columns(data):
    r = data.draw(st.sampled_from(SMALL_RINGS))
    ideal = rings.Ideal(r, draw_rows(data, r, (0, 2)))
    ann = ideal.annihilator().basis
    if not ideal.is_zero():  # the zero ideal never reached the kernel
        assert np.array_equal(ann, old_annihilator_basis(ideal))
    if r.size <= 729:
        killed = [x for x in oracles.elements(r) if not ((ideal.basis @ r.mul_matrix(x)) % r.char).any()]
        brute = linalg.howell_form(np.array(killed, dtype=np.int64), r.p, r.k, ncols=r.n)
        assert np.array_equal(ann, brute)


# ---- corpus towers: cotangent lengths and Nakayama selection ----------


@pytest.fixture(scope="module")
def corpus():
    return towers.tower_corpus()


def quotient_length(o, top):
    """Length of top/top^2 from the module presentation of the quotient."""
    mod = oracles.module_from_ideal_quotient(top.ring, top, top.mul_ideal(top))
    return towers._o_length(o, mod.log_size())


def test_cotangent_length_from_sizes(corpus):
    assert len(corpus) == 23
    for t in corpus:
        want = quotient_length(t.lam, t.I)
        assert towers.cotangent_length(t.h, t.I, t.lam) == want, t.label
        assert towers.fitting_replay(t)["cotangent_length"] == want, t.label
        assert towers.cotangent_length(t.H, t.I_H, t.lam) == quotient_length(t.lam, t.I_H), t.label


def test_min_module_rows_picks_the_same_rows(corpus, monkeypatch):
    seen = []
    real = towers._min_module_rows

    def record(ring, rows, g):
        seen.append((ring, np.array(rows), g))
        return real(ring, rows, g)

    monkeypatch.setattr(towers, "_min_module_rows", record)
    for t in corpus:
        towers.theorem_audit(t)
        towers.fitting_replay(t)
    assert any(g > 1 for _, _, g in seen)
    for ring, rows, g in seen:
        assert np.array_equal(real(ring, rows, g), old_min_module_rows(ring, rows, g))


# ---- Nakayama picks over a residue field of degree 2, k = 2 ------------


def _galois_rings():
    """Local rings with k = 2 and residue field F25: GR(25, 2), the table
    of F25 read mod 25 (Z/25[x]/(f), f the lift of F25's polynomial), and
    truncated polynomial rings over it."""
    f25 = rings.field_ring(5, 2)
    gr = rings.FiniteRing(5, 2, f25.table, f25.one, name="GR(25,2)")
    gr_t2 = rings.truncated_poly_ring(gr, 2)
    return [gr, gr_t2, rings.truncated_poly_ring(gr, 3), rings.truncated_poly_ring(gr_t2, 2)]


GALOIS_RINGS = _galois_rings()


def test_galois_rings_are_local_with_residue_degree_2():
    for r in GALOIS_RINGS:
        r.check_ring()
        assert r.k == 2 and r.is_local and r.residue_log_size == 2, r.name


def _picks_and_howell_calls(ring, rows, g):
    """(picks, number of howell_form calls made by _min_module_rows itself)."""
    calls = []
    real = linalg.howell_form

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "howell_form", counted)
        picks = towers._min_module_rows(ring, rows, g)
    return picks, calls.count("_min_module_rows")


@seed(8106)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_min_module_rows_over_galois_rings(data):
    r = data.draw(st.sampled_from(GALOIS_RINGS))
    g = data.draw(st.integers(1, 2))
    gens = draw_rows(data, r, (1, 3), g * r.n)
    # some generators scaled by p, so that modules with torsion occur
    scale = data.draw(st.lists(st.integers(0, 1), min_size=len(gens), max_size=len(gens)))
    rows = r.orbit((gens * r.p ** np.array(scale)[:, None]) % r.char, g)  # the module they generate
    if data.draw(st.booleans()):
        rows = modules.maximal_multiples(r, rows, g)  # m*M, which needs more generators
    full = linalg.howell_form(rows, r.p, r.k, ncols=g * r.n)
    picks, calls = _picks_and_howell_calls(r, full, g)
    assert np.array_equal(picks, old_min_module_rows(r, rows, g))
    # m*M, and the residue lifts and the relations U unless the rows outside
    # m*M are the picks; no extension per pick, no check of the picks (the
    # test hook makes it), and the Howell basis of M is taken as given
    mm = linalg.howell_form(modules.maximal_multiples(r, full, g), r.p, r.k, ncols=g * r.n)
    outside = np.count_nonzero(linalg.FactoredSpan(mm, r.p, r.k).reduce(full)[0].any(axis=1))
    assert calls == ((1 if outside == picks.shape[0] else 3) if picks.size else 0)


def test_principal_ideal_picks_without_extending_the_span():
    r = GALOIS_RINGS[2]  # GR(25, 2)[t]/t^3
    x = np.zeros(r.n, dtype=np.int64)
    x[0], x[2] = 5, 1  # 5 + t
    ideal = rings.Ideal(r, [x])
    picks, calls = _picks_and_howell_calls(r, ideal.basis, 1)
    assert picks.shape == (1, r.n) and rings.Ideal(r, picks) == ideal
    assert calls == 3  # m*I, the residue lifts and the relations U: no span extension, no final check
    assert np.array_equal(picks, old_min_module_rows(r, ideal.basis, 1))


# ---- check_ring on corrupted tables ------------------------------------

Z25 = rings.zmod_ring(5, 2)
CHECKED = [rings.truncated_poly_ring(Z25, 6), rings.truncated_poly_ring(Z25, 21)]


@seed(8105)
@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from([0, 1]),
    idx=st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
    delta=st.integers(1, 24),
    symmetric=st.booleans(),
)
def test_check_ring_raises_as_before(which, idx, delta, symmetric):
    base = CHECKED[which]
    i, j, l = (x % base.n for x in idx)
    table = base.table.copy()
    table[i, j, l] = (table[i, j, l] + delta) % 25
    if symmetric:
        table[j, i, l] = table[i, j, l]
    bad = rings.FiniteRing(5, 2, table, base.one)
    assert outcome(bad.check_ring) == outcome(old_check_ring, bad, 0, bad.n)
    # every corruption the old sample rejected is still rejected
    if outcome(old_check_ring, bad) is not None:
        assert outcome(bad.check_ring) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_ASSOC_TERMS", 0)
        assert outcome(bad.check_ring) == outcome(old_check_ring, bad)
        # the sampled branch alone, commutative or not
        assert outcome(bad._check_associativity) == outcome(old_check_associativity, bad, 0, 20)


def test_check_ring_corruptions_reach_every_message(monkeypatch):
    monkeypatch.setattr(rings, "_ASSOC_TERMS", 0)
    big = CHECKED[1]
    messages = set()
    for (i, j, l) in [(0, 3, 4), (0, 3, 3), (2, 3, 9), (5, 7, 1)]:
        table = big.table.copy()
        table[i, j, l] = table[j, i, l] = (table[i, j, l] + 1) % 25
        bad = rings.FiniteRing(5, 2, table, big.one)
        messages.add(outcome(bad.check_ring))
        assert outcome(bad.check_ring) == outcome(old_check_ring, bad)
    table = big.table.copy()
    table[2, 3, 6] = 1
    messages.add(outcome(rings.FiniteRing(5, 2, table, big.one).check_ring))
    assert messages >= {"one fails on basis 3", "associativity fails on sample", "structure constants are not commutative"}


# ---- work-count guard --------------------------------------------------

# Rows reaching `linalg._engine` over build, audit and replay of the
# plane-F5-r1 tower: 9,681 over 134 calls with iterated closures, 5,792
# over 122 calls with the one-step spans, 500 over 119 calls once
# `howell_form` splits off the unit singleton rows, 469 over 111 calls
# once the generators of I and each annihilator are computed once per
# tower, and 455 over 112 calls once m*M is formed from the generators of
# m.  Counts repeat exactly, so the ceiling is the count itself.
ENGINE_ROWS = 455


def test_engine_rows_of_one_tower(monkeypatch):
    lam = rings.DvrModel(5, 1, 16)
    work = {"calls": 0, "rows": 0}
    engine = linalg._engine

    def counted(mat, p, k, with_transform):
        work["calls"] += 1
        work["rows"] += mat.shape[0]
        return engine(mat, p, k, with_transform)

    monkeypatch.setattr(linalg, "_engine", counted)
    t = towers.build_eisenstein_tower(lam, 1, {"kind": "plane"})
    towers.theorem_audit(t)
    towers.fitting_replay(t)
    assert work["rows"] <= ENGINE_ROWS, work


def test_ideal_closure_makes_two_howell_calls(monkeypatch):
    r = rings.truncated_poly_ring(rings.zmod_ring(5, 1), 4)
    calls = []
    howell = linalg.howell_form

    def counted(*args, **kwargs):
        calls.append(args[0])
        return howell(*args, **kwargs)

    monkeypatch.setattr(linalg, "howell_form", counted)
    ideal = rings.Ideal(r, [[0, 1, 0, 0], [0, 0, 2, 1]])  # (t, 2t^2 + t^3) = (t)
    assert len(calls) == 2
    assert ideal.log_size() == 3
