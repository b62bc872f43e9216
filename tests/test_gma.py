"""Cayley-Hamilton quotient and matrix-coordinate tests.

Two independent oracles anchor this file.  First, honest matrix
representations: the quotient of the group algebra for the trace of an
irreducible 2-dimensional representation must be the full 2x2 matrix
algebra, compared against `matrix_algebra` structure constants through an
explicit change of basis.  Second, hand-computed small cases: a sum of
two characters must collapse to a rank-2 commutative algebra with zero
pairing modules, and the dihedral trace over F5[s]/(s^2) built below has
its pairing ideal worked out on paper, including the lattice of subideals
under it.
"""

import ast
import dataclasses
import functools
import itertools
import pathlib
import random

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import algebras, gma, groups, linalg, psrep, rings, scenarios
from exalg.errors import BudgetExceeded, InputError, InvariantViolation
from exalg.rings import Ideal

F5 = rings.zmod_ring(5, 1)
F7 = rings.zmod_ring(7, 1)
Z25 = rings.zmod_ring(5, 2)
T2 = rings.truncated_poly_ring(F5, 2, name="T2")
T3 = rings.truncated_poly_ring(F5, 3, name="T3")


def s3_irr_psrep(ring):
    """Trace of the standard 2-dimensional S3 representation over `ring`."""
    s3 = groups.symmetric_3()
    t = np.zeros((6, ring.n), dtype=np.int64)
    d = np.zeros((6, ring.n), dtype=np.int64)
    for g in s3.elements():
        o = s3.order_of(g)
        if o == 1:
            t[g], d[g] = 2 * ring.one, ring.one
        elif o == 2:
            t[g], d[g] = ring.zero(), (-ring.one) % ring.char
        else:
            t[g], d[g] = (-ring.one) % ring.char, ring.one
    return psrep.Pseudorep2(s3, ring, t, d, name="s3irr")


def c4_diag_psrep():
    """chi1 = 1 and chi2(g) = 2 on the 4-cycle over F5."""
    c4 = groups.cyclic_group(4)
    chi1 = groups.trivial_char(c4, F5)
    chi2 = groups.cyclic_char(c4, F5, 1, np.array([2]))
    return psrep.psrep_from_chars(chi1, chi2)


def c2_z25_psrep():
    """1 + sign on the 2-element group over Z/25."""
    c2 = groups.cyclic_group(2)
    t = np.array([[2], [0]], dtype=np.int64)
    d = np.array([[1], [24]], dtype=np.int64)
    return psrep.Pseudorep2(c2, Z25, t, d, name="c2pm")


def d5_t2_psrep():
    """Nontrivial deformation of 1 + sign on the 5-dihedral group.

    t(r^j) = 2 + j^2 s and t = 0 on reflections, with d = 1 and -1.  This
    is the trace of an explicit representation into a pairing algebra with
    B = C = T2 and m(b, c) = 4 s b c, so its pairing ideal is exactly (s):
    nonzero because no character pair fits the deformed rotation traces
    (characters of the dihedral group cannot see s), and no smaller ideal
    works because the trace stays deformed modulo the zero ideal.
    """
    d5 = groups.dihedral_group(5)
    t = np.zeros((10, 2), dtype=np.int64)
    d = np.zeros((10, 2), dtype=np.int64)
    for j in range(5):
        t[j] = [2, (j * j) % 5]
        d[j] = [1, 0]
        t[5 + j] = [0, 0]
        d[5 + j] = [4, 0]
    return psrep.Pseudorep2(d5, T2, t, d, name="d5t2")


def d4_irr_psrep():
    """Trace of the faithful 2-dimensional dihedral-4 representation over F5."""
    d4 = groups.dihedral_group(4)
    rot = np.zeros((2, 2, 1), dtype=np.int64)
    rot[0, 1], rot[1, 0] = 4, 1
    ref = np.zeros((2, 2, 1), dtype=np.int64)
    ref[0, 0], ref[1, 1] = 1, 4
    rep = psrep.MatrixRep2.from_generators(d4, F5, {1: rot, 4: ref}, name="d4std")
    return psrep.psi_of_rep(rep)


# ---- quotient construction ------------------------------------------


def test_trivial_group_quotient_is_base():
    c1 = groups.cyclic_group(1)
    chi = groups.trivial_char(c1, F5)
    ch = gma.ch_quotient(psrep.psrep_from_chars(chi, chi))
    assert ch.nbar == 1
    # 1 * 1 = 1 and t(1) = 2: the base itself
    assert ch.t_el(ch.algebra.one).tolist() == [2]


def test_character_sum_quotient_has_rank_two():
    ch = gma.ch_quotient(c4_diag_psrep())
    assert ch.nbar == 2
    x, y = np.eye(2, dtype=np.int64)
    assert np.array_equal(ch.algebra.mul(x, y), ch.algebra.mul(y, x))


def test_s3_quotient_is_full_matrix_algebra():
    ch = gma.ch_quotient(s3_irr_psrep(F7))
    assert ch.nbar == 4
    res = gma.lift_idempotents(ch)
    g = gma.gma_decompose(ch, res["e1"])
    # basis (e1, b, m^-1 c, e2) must reproduce the 2x2 structure constants
    m00 = g.m_table[0, 0]
    basis = np.stack([g.e1, g.b_basis[0], ch.algebra.amul(F7.inv(m00), g.c_basis[0]), g.e2])
    mat = algebras.matrix_algebra(F7, 2)
    for i in range(4):
        for j in range(4):
            prod = ch.algebra.mul(basis[i], basis[j])
            coords = linalg.solve_left(basis, prod, 7, 1)
            assert coords is not None
            want = mat.table[i, j].reshape(4)
            assert np.array_equal(coords % 7, want), (i, j)


def test_s3_quotient_lifts_to_z25():
    ch = gma.ch_quotient(s3_irr_psrep(Z25))
    assert ch.nbar == 4
    assert ch.algebra.char == 25


def test_c2_quotient_keeps_whole_group_algebra():
    # 1 + sign already satisfies the 2-dimensional identity on A[C2]
    ch = gma.ch_quotient(c2_z25_psrep())
    assert ch.nbar == 2
    assert ch.quot.proj.src.n == 2


def test_equal_characters_collapse_to_scalars():
    d4 = groups.dihedral_group(4)
    chi = groups.trivial_char(d4, F5)
    ch = gma.ch_quotient(psrep.psrep_from_chars(chi, chi))
    assert ch.nbar == 1


def test_d5_deformation_quotient_dimension():
    ch = gma.ch_quotient(d5_t2_psrep())
    # corners T2 + T2 and two free rank-1 pairing modules: 8 over F5
    assert ch.nbar == 8


def test_quotient_preserves_group_traces():
    psr = d5_t2_psrep()
    ch = gma.ch_quotient(psr)
    for g in psr.group.elements():
        assert np.array_equal(ch.t_el(ch.rho(g)), psr.t[g])
        assert np.array_equal(ch.d_el(ch.rho(g)), psr.d[g])


def test_identity_holds_for_every_element_small_cases():
    for psr in [c4_diag_psrep(), c2_z25_psrep()]:
        ch = gma.ch_quotient(psr)
        for x in oracles.elements(ch.algebra):
            assert not oracles.ch_at(ch, np.array(x)).any()


def test_identity_holds_on_samples_large_cases():
    rng = random.Random(11)
    for psr in [s3_irr_psrep(F7), d5_t2_psrep()]:
        ch = gma.ch_quotient(psr)
        for _ in range(200):
            x = oracles.random_element(ch.algebra, rng)
            assert not oracles.ch_at(ch, x).any()


def test_invalid_trace_rejected():
    c2 = groups.cyclic_group(2)
    t = np.array([[2], [5]], dtype=np.int64)
    d = np.array([[1], [24]], dtype=np.int64)
    bad = psrep.Pseudorep2(c2, Z25, t, d, name="bad")
    assert not psrep.validate_pseudorep(bad)["ok"]
    with pytest.raises(InvariantViolation):
        gma.ch_quotient(bad)


def test_trace_radical_frozen_sizes():
    # full matrix algebra: nondegenerate pairing; the deformed dihedral case
    # keeps s times each pairing module in the radical
    assert oracles.kernel_rows(gma.ch_quotient(s3_irr_psrep(F7))).shape[0] == 0
    assert oracles.kernel_rows(gma.ch_quotient(d5_t2_psrep())).shape[0] == 2


def test_base_embeds_into_quotient():
    for psr in [c4_diag_psrep(), d5_t2_psrep()]:
        ch = gma.ch_quotient(psr)
        emb = ch.algebra.base_embed
        assert linalg.kernel(emb, ch.algebra.p, ch.algebra.k).shape[0] == 0


# ---- base change ----------------------------------------------------


def test_base_change_to_residue_field():
    ch = gma.ch_quotient(s3_irr_psrep(Z25))
    down, connect = gma.ch_base_change(ch, Z25.residue_field().proj)
    assert down.nbar == 4
    assert connect.shape == (4, 4)
    h = linalg.howell_form(connect, 5, 1, ncols=4)
    assert h.shape[0] == 4  # surjective
    for g in range(6):
        assert np.array_equal((ch.rho(g) @ connect) % 5, down.rho(g))


def test_base_change_rejects_wrong_source():
    ch = gma.ch_quotient(c4_diag_psrep())
    with pytest.raises(InputError):
        gma.ch_base_change(ch, Z25.residue_field().proj)


def test_base_change_rejects_a_map_that_is_not_onto(monkeypatch):
    """F5 -> F5[s]/(s^2) is injective, not onto: refused before any ideal is built."""
    ch = gma.ch_quotient(c4_diag_psrep())
    into = rings.RingMap(F5, T2, np.array([[1, 0]], dtype=np.int64), name="into")
    into.check_hom()
    monkeypatch.setattr(gma, "two_sided_ideal_rows", None)
    with pytest.raises(InputError, match="surjective"):
        gma.ch_base_change(ch, into)


# ---- idempotent lifting ---------------------------------------------


def test_lift_on_character_sum_over_field():
    ch = gma.ch_quotient(c4_diag_psrep())
    res = gma.lift_idempotents(ch)
    assert res["supported"]
    assert res["source"] == "split-characters"
    assert res["iterations"] == 0
    al = ch.algebra
    assert np.array_equal(al.mul(res["e1"], res["e1"]), res["e1"])
    assert np.array_equal(al.add(res["e1"], res["e2"]), al.one)
    assert not al.mul(res["e1"], res["e2"]).any()


def test_stage_gma_takes_the_corner_kappa_aligns():
    """chi1 = 1, chi2 = 2 and kappa = 3 on the 4-cycle over F5: kappa^-1 is
    chi2, so the scenario's GMA has rho11 = chi2, where the lift without
    kappa takes the first residual character, chi1."""
    doc = {
        "name": "c4-kappa-chi2",
        "kind": "psrep",
        "seed": 0,
        "budget": 200000,
        "ring": {"kind": "zmod", "p": 5, "k": 1},
        "group": {"kind": "cyclic", "n": 4, "dp": [0, 1, 2, 3], "ip": [0, 1, 2, 3]},
        "psrep": {
            "kind": "char_pair",
            "chi1": {"kind": "trivial"},
            "chi2": {"kind": "power", "gen": 1, "value": 2},
        },
        "kappa": {"kind": "power", "gen": 1, "value": 3},
        "stages": ["gma"],
    }
    state = scenarios._State(scenarios.load_scenario(doc))
    c4 = state.psr.group
    chi1 = groups.trivial_char(c4, F5)
    chi2 = groups.cyclic_char(c4, F5, 1, np.array([2]))
    ch = state.ch
    unaligned = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    for g, chi in ((state.gma, chi2), (unaligned, chi1)):
        rho11 = oracles.coordinate_maps(g)["rho11"]
        assert all(np.array_equal(rho11[h], chi(h)) for h in c4.elements())


def test_lift_over_z25_converges_within_radical_class():
    ch = gma.ch_quotient(c2_z25_psrep())
    res = gma.lift_idempotents(ch)
    assert res["supported"]
    assert res["iterations"] <= oracles.radical_nilpotency_class(Z25)
    # (1 + g) / 2 with 1/2 = 13 mod 25
    assert res["e1"].tolist() == [13, 13]


def test_lift_matrix_residual_cases():
    for psr, base in [(s3_irr_psrep(F7), F7), (s3_irr_psrep(Z25), Z25), (d4_irr_psrep(), F5)]:
        ch = gma.ch_quotient(psr)
        res = gma.lift_idempotents(ch)
        assert res["supported"]
        assert res["source"] == "matrix-residual"
        assert res["iterations"] <= oracles.radical_nilpotency_class(base)
        assert np.array_equal(ch.t_el(res["e1"]), base.one)


def test_lift_on_deformed_dihedral():
    ch = gma.ch_quotient(d5_t2_psrep())
    res = gma.lift_idempotents(ch)
    assert res["supported"]
    assert res["source"] == "split-characters"
    assert res["iterations"] <= oracles.radical_nilpotency_class(T2)


def test_lift_refuses_equal_characters():
    d4 = groups.dihedral_group(4)
    chi = groups.trivial_char(d4, F5)
    ch = gma.ch_quotient(psrep.psrep_from_chars(chi, chi))
    res = gma.lift_idempotents(ch)
    assert not res["supported"]
    assert "coincide" in res["reason"]


def test_lift_needs_local_base():
    # split quadratic etale algebra: x^2 = x makes two factors
    tab = np.zeros((2, 2, 2), dtype=np.int64)
    tab[0, 0, 0] = tab[0, 1, 1] = tab[1, 0, 1] = tab[1, 1, 1] = 1
    split = rings.FiniteRing(5, 1, tab, np.array([1, 0]), name="F5xF5")
    split.check_ring()
    assert not split.is_local
    c2 = groups.cyclic_group(2)
    chi = groups.trivial_char(c2, split)
    ch = gma.ch_quotient(psrep.psrep_from_chars(chi, chi))
    with pytest.raises(InputError):
        gma.lift_idempotents(ch)


# ---- matrix coordinates ---------------------------------------------


def test_decompose_character_sum_has_no_pairing_modules():
    ch = gma.ch_quotient(c4_diag_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    assert g.b_basis.shape[0] == 0
    assert g.c_basis.shape[0] == 0
    assert g.m_table.size == 0


def test_decompose_full_matrix_algebra():
    ch = gma.ch_quotient(s3_irr_psrep(Z25))
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    # B and C are free of rank 1 and the pairing is a unit: M2 over the base
    assert g.b_basis.shape[0] == 1
    assert g.c_basis.shape[0] == 1
    assert linalg.span_log_size(g.b_basis, 5, 2) == 2
    assert Z25.is_unit(g.m_table[0, 0])


def test_decompose_dihedral_over_f5():
    ch = gma.ch_quotient(d4_irr_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    assert g.b_basis.shape[0] == 1
    assert g.c_basis.shape[0] == 1
    assert g.m_table[0, 0].any()


def test_decompose_deformed_dihedral_modules():
    ch = gma.ch_quotient(d5_t2_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    al = ch.algebra
    s = np.array([0, 1])
    assert g.b_basis.shape[0] == 2
    assert g.c_basis.shape[0] == 2
    # free rank 1 over T2: multiplying the generator by s stays inside and is nonzero
    sb = al.amul(s, g.b_basis[0])
    assert sb.any() and linalg.span_contains(g.b_basis, sb, 5, 1)
    assert np.array_equal(g.phi1_of(al.mul(g.b_basis[0], g.c_basis[0])), np.array([0, 4]))
    assert not g.phi1_of(al.mul(sb, g.c_basis[0])).any()


def test_decompose_reproduces_trace_and_determinant():
    for psr in [c4_diag_psrep(), s3_irr_psrep(F7), d5_t2_psrep()]:
        ch = gma.ch_quotient(psr)
        res = gma.lift_idempotents(ch)
        g = gma.gma_decompose(ch, res["e1"])
        eye = np.eye(ch.nbar, dtype=np.int64)
        for i in range(ch.nbar):
            tsum = (g.phi1_of(eye[i]) + (eye[i] @ g.phi2) % g.base.char) % ch.base.char
            assert np.array_equal(tsum, ch.t_el(eye[i]))
            x12 = (eye[i] @ g.p12) % ch.algebra.char
            x21 = (eye[i] @ g.p21) % ch.algebra.char
            det = (ch.base.mul(g.phi1_of(eye[i]), (eye[i] @ g.phi2) % g.base.char) - g.phi1_of(ch.algebra.mul(x12, x21))) % ch.base.char
            assert np.array_equal(det, ch.d_el(eye[i]))


def test_decompose_rejects_bad_idempotents():
    ch = gma.ch_quotient(s3_irr_psrep(F7))
    with pytest.raises(InputError):
        gma.gma_decompose(ch, 2 * ch.algebra.one)  # (2)^2 = 4 != 2: not idempotent
    with pytest.raises(InvariantViolation):
        gma.gma_decompose(ch, ch.algebra.one)  # trace 2, complement trace 0


def test_coordinate_maps_of_character_sum_are_diagonal():
    psr = c4_diag_psrep()
    ch = gma.ch_quotient(psr)
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    cm = oracles.coordinate_maps(g)
    assert not cm["rho12"].any()
    assert not cm["rho21"].any()
    for gg in psr.group.elements():
        assert np.array_equal(
            (cm["rho11"][gg] + cm["rho22"][gg]) % 5, psr.t[gg]
        )


def test_coordinate_maps_frozen_dihedral_values():
    ch = gma.ch_quotient(d5_t2_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    cm = oracles.coordinate_maps(g)
    # diagonal coordinates of the rotation differ by the deformation
    assert (cm["rho11"][1].tolist(), cm["rho22"][1].tolist()) in (
        ([1, 1], [1, 0]),
        ([1, 0], [1, 1]),
    )
    assert cm["rho12"][1].any()
    assert cm["rho21"][1].any()


# ---- hand-built pairing algebras ------------------------------------


def test_abstract_pairing_algebra_with_unit_pairing_is_matrix_algebra():
    g = oracles.abstract_gma(F5, F5.one)
    mat = algebras.matrix_algebra(F5, 2)
    # block order (corner1, corner2, B, C) against (E11, E12, E21, E22)
    perm = [0, 3, 1, 2]
    for i in range(4):
        for j in range(4):
            want = mat.table[perm[i], perm[j]].reshape(4)[perm]
            assert np.array_equal(g.algebra.table[i, j], want)


def test_abstract_pairing_algebra_truncated_cubic():
    tvec = np.array([0, 1, 0])
    g = oracles.abstract_gma(T3, tvec)
    assert g.algebra.n == 12
    red = gma.reducibility_ideal(g)
    assert red["ideal"] == Ideal(T3, tvec.reshape(1, -1))
    assert red["certificate"] is None
    vals = {(e["b_row"], e["c_row"]): e["value"] for e in red["generators"]}
    assert vals[(0, 0)] == [0, 1, 0]
    assert vals[(1, 1)] == [0, 0, 0]


def test_abstract_pairing_algebra_has_no_group_coordinates():
    g = oracles.abstract_gma(F5, F5.one)
    with pytest.raises(InputError):
        oracles.coordinate_maps(g)
    with pytest.raises(InputError):
        oracles.reducibility_minimality(g)


# ---- splitting into characters --------------------------------------


def test_split_character_sum_recovers_characters():
    psr = c4_diag_psrep()
    out = gma.split_as_characters(psr)
    assert out["split"] and not out["trivial"]
    chi1, chi2 = out["chars"]
    for g in psr.group.elements():
        assert np.array_equal((chi1(g) + chi2(g)) % 5, psr.t[g])
        assert np.array_equal(F5.mul(chi1(g), chi2(g)), psr.d[g])


def test_split_fails_for_irreducible_traces():
    assert not gma.split_as_characters(s3_irr_psrep(F7))["split"]
    assert not gma.split_as_characters(d4_irr_psrep())["split"]


def test_split_fails_for_deformed_dihedral():
    # characters factor through the abelianization and cannot see s
    assert not gma.split_as_characters(d5_t2_psrep())["split"]


def test_split_succeeds_residually_for_deformed_dihedral():
    psr = d5_t2_psrep()
    down = psrep.psrep_base_change(psr, T2.residue_field().proj)
    out = gma.split_as_characters(down)
    assert out["split"]
    chi1, chi2 = out["chars"]
    vals = sorted((int(chi1(5)[0]), int(chi2(5)[0])))
    assert vals == [1, 4]  # trivial and sign at a reflection


def test_split_over_zero_ring_is_trivial():
    zero = oracles.zero_ring(5)
    c2 = groups.cyclic_group(2)
    t = np.zeros((2, 0), dtype=np.int64)
    psr = psrep.Pseudorep2(c2, zero, t, t.copy(), name="z")
    out = gma.split_as_characters(psr)
    assert out["split"] and out["trivial"]


def test_zero_ring_quotient_is_the_zero_algebra_and_does_not_decompose():
    zero = oracles.zero_ring(5)
    t = np.zeros((2, 0), dtype=np.int64)
    psr = psrep.Pseudorep2(groups.cyclic_group(2), zero, t, t.copy(), name="z")
    ch = gma.ch_quotient(psr)
    assert ch.nbar == 0 and ch.t_matrix.shape == (0, 0) and ch.rho_mat.shape == (2, 0)
    assert gma.ch_quotient(psr, extra=np.zeros((0, 0), dtype=np.int64)).nbar == 0
    ident = rings.RingMap(zero, zero, np.zeros((0, 0), dtype=np.int64), name="id")
    down, connect = gma.ch_base_change(ch, ident, extra=np.zeros((0, 0), dtype=np.int64))
    assert down.nbar == 0 and connect.shape == (0, 0)
    with pytest.raises(InputError, match="cannot decompose the zero algebra"):
        gma.gma_decompose(ch, np.zeros(0, dtype=np.int64))


def test_split_budget_guard():
    with pytest.raises(BudgetExceeded):
        gma.split_as_characters(c4_diag_psrep(), budget=1)


# ---- reducibility ideal ---------------------------------------------


def test_reducibility_ideal_zero_for_character_sum():
    ch = gma.ch_quotient(c4_diag_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    red = gma.reducibility_ideal(g)
    assert red["ideal"].is_zero()
    assert red["certificate"]["split"]


def test_reducibility_ideal_unit_for_matrix_algebra():
    ch = gma.ch_quotient(s3_irr_psrep(F7))
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    red = gma.reducibility_ideal(g)
    assert red["ideal"].is_unit_ideal()
    # the quotient is the zero ring, where the trace splits trivially
    assert red["certificate"]["split"] and red["certificate"]["trivial"]


def test_reducibility_ideal_intermediate_for_deformed_dihedral():
    ch = gma.ch_quotient(d5_t2_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    red = gma.reducibility_ideal(g)
    assert red["ideal"] == Ideal(T2, np.array([[0, 1]]))
    assert not red["ideal"].is_zero()
    assert not red["ideal"].is_unit_ideal()
    assert red["certificate"]["split"] and not red["certificate"]["trivial"]
    gens = {(e["b_row"], e["c_row"]): e["value"] for e in red["generators"]}
    assert gens[(0, 0)] == [0, 4]


# ---- subideal lattice and minimality --------------------------------


def test_maximal_subideals_of_principal_chain():
    # (5) in Z/25 has only the zero ideal below it
    subs = oracles.maximal_subideals(Ideal(Z25, np.array([[5]])))
    assert len(subs) == 1 and subs[0].is_zero()
    # (t) in F5[t]/t^3 has exactly (t^2)
    subs = oracles.maximal_subideals(Ideal(T3, np.array([[0, 1, 0]])))
    assert len(subs) == 1
    assert subs[0] == Ideal(T3, np.array([[0, 0, 1]]))
    # unit ideal: the maximal ideal itself
    subs = oracles.maximal_subideals(Ideal(Z25, np.array([[1]])))
    assert len(subs) == 1
    assert subs[0] == Ideal(Z25, np.array([[5]]))


def test_maximal_subideals_of_fat_point():
    tab = np.zeros((3, 3, 3), dtype=np.int64)
    tab[0, 0, 0] = 1
    tab[0, 1, 1] = tab[1, 0, 1] = 1
    tab[0, 2, 2] = tab[2, 0, 2] = 1
    fat = rings.FiniteRing(5, 1, tab, np.array([1, 0, 0]), name="fat")
    fat.check_ring()
    subs = oracles.maximal_subideals(Ideal(fat, np.array([[0, 1, 0], [0, 0, 1]])))
    # lines of a 2-dimensional space over F5
    assert len(subs) == 6
    for s in subs:
        assert s.log_size() == 1


def test_maximal_subideals_are_maximal():
    ideal = Ideal(T3, np.array([[0, 1, 0]]))
    for sub in oracles.maximal_subideals(ideal):
        assert ideal.contains_ideal(sub)
        assert sub.log_size() < ideal.log_size()
        # adding any missed element jumps straight back to the ideal
        for x in [np.array([0, 1, 0]), np.array([0, 1, 1])]:
            assert not sub.contains(x)
            assert sub.add_ideal(Ideal(T3, x.reshape(1, -1))) == ideal


def test_maximal_subideals_reject_non_local():
    tab = np.zeros((2, 2, 2), dtype=np.int64)
    tab[0, 0, 0] = tab[0, 1, 1] = tab[1, 0, 1] = tab[1, 1, 1] = 1
    split = rings.FiniteRing(5, 1, tab, np.array([1, 0]), name="F5xF5")
    split.check_ring()
    with pytest.raises(InputError):
        oracles.maximal_subideals(Ideal(split, np.array([[1, 0]])))


def test_minimality_of_deformed_dihedral_ideal():
    ch = gma.ch_quotient(d5_t2_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    out = oracles.reducibility_minimality(g)
    assert out["minimal"]
    assert out["checked"] == 1  # only the zero ideal sits under (s)
    assert out["witness"] is None


def test_minimality_trivial_for_zero_ideal():
    ch = gma.ch_quotient(c4_diag_psrep())
    g = gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])
    out = oracles.reducibility_minimality(g)
    assert out["minimal"] and out["checked"] == 0


# ---- universality ---------------------------------------------------


def _passes_ch_membership(ch, krows, exhaustive):
    """Does the ideal spanned by krows support a Cayley-Hamilton quotient?

    Needs the trace to vanish on it and x^2 - t(x) x + d(x) to land in it
    for every element x of the parent algebra (the polarized generators
    are differences of these, so membership for all x pulls the whole
    generating set inside).
    """
    E, ext = ch.quot.proj.src, psrep.extended_forms(ch.psr)
    a = ch.base
    if krows.shape[0] and ((krows @ ext.t_matrix) % a.char).any():
        return False
    h = linalg.howell_form(krows, E.p, E.k, ncols=E.n)

    def unpol(x):
        out = E.sub(E.mul(x, x), E.amul(ext.t_el(x), x))
        return E.add(out, E.scalar(ext.d_el(x)))

    if exhaustive:
        xs = (np.array(x) for x in oracles.elements(E))
    else:
        rng = random.Random(5)
        xs = itertools.chain(
            np.eye(E.n, dtype=np.int64), (oracles.random_element(E, rng) for _ in range(150))
        )
    return all(linalg.span_contains(h, unpol(x), E.p, E.k) for x in xs)


@pytest.mark.parametrize(
    "psr,exhaustive",
    [(c4_diag_psrep(), True), (c2_z25_psrep(), True), (s3_irr_psrep(F7), False)],
    ids=["c4diag", "c2z25", "s3f7"],
)
def test_every_ch_compatible_ideal_factors_through_quotient(psr, exhaustive):
    """Single-generator closures either contain the quotient ideal or fail.

    Any ideal whose quotient satisfies the identity with the induced trace
    must contain the canonical one, so the canonical quotient is the
    largest: every compatible quotient factors through it, uniquely since
    both are generated by the image of the group algebra.
    """
    ch = gma.ch_quotient(psr)
    E = ch.quot.proj.src
    # recover the quotient ideal as the kernel of the projection
    proj_cols = np.array([ch.quot.proj(e) for e in np.eye(E.n, dtype=np.int64)])
    jrows = linalg.kernel(proj_cols, E.p, E.k)
    rng = random.Random(7)
    cands = [np.zeros(E.n, dtype=np.int64)]
    cands.extend(np.eye(E.n, dtype=np.int64))
    cands.extend(oracles.random_element(E, rng) for _ in range(60 if exhaustive else 40))
    # every element of the quotient ideal itself, when that stays small:
    # some of them generate the whole ideal and must pass
    if jrows.shape[0] and E.char ** jrows.shape[0] <= 700:
        for combo in itertools.product(range(E.char), repeat=jrows.shape[0]):
            cands.append(np.tensordot(np.array(combo), jrows, axes=1) % E.char)
    tried = checked = 0
    for v in cands:
        krows = algebras.two_sided_ideal_rows(E, v.reshape(1, -1))
        tried += 1
        if _passes_ch_membership(ch, krows, exhaustive):
            checked += 1
            h = linalg.howell_form(krows, E.p, E.k, ncols=E.n)
            for row in jrows:
                assert linalg.span_contains(h, row, E.p, E.k)
    assert tried == len(cands)
    assert checked >= 1  # at least some compatible ideal showed up
    # and the canonical ideal itself passes its own membership test
    assert _passes_ch_membership(ch, jrows, exhaustive)


# ---- whole-pipeline properties --------------------------------------

_UNITS5 = [1, 2, 3, 4]


@given(st.sampled_from(_UNITS5), st.sampled_from(_UNITS5))
@settings(max_examples=16, deadline=None)
def test_character_pairs_round_trip(u1, u2):
    """Sums of characters always split back and carry zero pairing ideal."""
    c4 = groups.cyclic_group(4)
    chi1 = groups.cyclic_char(c4, F5, 1, np.array([u1]))
    chi2 = groups.cyclic_char(c4, F5, 1, np.array([u2]))
    psr = psrep.psrep_from_chars(chi1, chi2)
    assert psrep.validate_pseudorep(psr)["ok"]
    ch = gma.ch_quotient(psr)
    assert ch.nbar in (1, 2)
    out = gma.split_as_characters(psr)
    assert out["split"]
    res = gma.lift_idempotents(ch)
    if u1 == u2:
        assert not res["supported"]
        return
    g = gma.gma_decompose(ch, res["e1"])
    assert gma.reducibility_ideal(g)["ideal"].is_zero()


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=15, deadline=None)
def test_deformed_dihedral_family(a, b):
    """t(r^j) = 2 + (a j^2 + b j^4) s stays a valid trace; its pairing
    ideal is (s) whenever the deformation is nonzero."""
    d5 = groups.dihedral_group(5)
    t = np.zeros((10, 2), dtype=np.int64)
    d = np.zeros((10, 2), dtype=np.int64)
    for j in range(5):
        t[j] = [2, (a * j * j + b * j ** 4) % 5]
        d[j] = [1, 0]
        t[5 + j] = [0, 0]
        d[5 + j] = [4, 0]
    psr = psrep.Pseudorep2(d5, T2, t, d, name="fam")
    report = psrep.validate_pseudorep(psr)
    if not report["ok"]:
        # the family is not closed under every (a, b); skip those
        return
    ch = gma.ch_quotient(psr)
    res = gma.lift_idempotents(ch)
    if not res["supported"]:
        # only equal residual characters block the lift here
        assert "coincide" in res["reason"]
        return
    g = gma.gma_decompose(ch, res["e1"])
    red = gma.reducibility_ideal(g)
    if gma.split_as_characters(psr)["split"]:
        assert red["ideal"].is_zero()
    else:
        assert red["ideal"] == Ideal(T2, np.array([[0, 1]]))


# ---- batched Peirce checks against their per-row reference -----------


def _loop_gma_failure(g):
    """First failure of Peirce reassembly and the corner determinant formula,
    one basis vector at a time."""
    al, a = g.algebra, g.base
    inv2 = pow(2, -1, a.char)
    for x in np.eye(al.n, dtype=np.int64):
        x12, x21 = (x @ g.p12) % al.char, (x @ g.p21) % al.char
        parts = (al.amul(g.phi1_of(x), g.e1) + x12 + x21 + al.amul((x @ g.phi2) % g.base.char, g.e2)) % al.char
        if not np.array_equal(parts, x):
            return "Peirce reassembly fails"
        tx, tx2 = ((g.phi1_of(y) + (y @ g.phi2) % g.base.char) % a.char for y in (x, al.mul(x, x)))
        want = (inv2 * (a.mul(tx, tx) - tx2)) % a.char
        got = (a.mul(g.phi1_of(x), (x @ g.phi2) % g.base.char) - g.phi1_of(al.mul(x12, x21))) % a.char
        if not np.array_equal(got, want):
            return "determinant does not match its corner formula"
        if g.ch is not None and not np.array_equal(want, g.ch.d_el(x)):
            return "corner determinant disagrees with the descended one"
    return None


def _loop_coordinate_failure(g):
    """First failure of the `coordinate_maps` checks, one group element at a time."""
    al, a = g.algebra, g.base
    for i, x in enumerate(g.ch.rho_mat):
        x12, x21 = (x @ g.p12) % al.char, (x @ g.p21) % al.char
        back = (al.amul(g.phi1_of(x), g.e1) + x12 + x21 + al.amul((x @ g.phi2) % g.base.char, g.e2)) % al.char
        if not np.array_equal(back, x):
            return f"coordinates do not reassemble the image of {i}"
        if not linalg.span_contains(g.b_basis, x12, a.p, a.k):
            return "off-diagonal coordinate escapes the B span"
        if not linalg.span_contains(g.c_basis, x21, a.p, a.k):
            return "off-diagonal coordinate escapes the C span"
    return None


def _raised(fn, g):
    try:
        fn(g)
    except InvariantViolation as exc:
        return str(exc)
    return None


@functools.cache
def _peirce_case(name):
    if name == "pairing":
        return oracles.abstract_gma(T3, np.array([0, 1, 0]))
    psr = {"d5t2": d5_t2_psrep, "s3f7": lambda: s3_irr_psrep(F7), "c4": c4_diag_psrep}[name]()
    ch = gma.ch_quotient(psr)
    return gma.gma_decompose(ch, gma.lift_idempotents(ch)["e1"])


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["d5t2", "s3f7", "c4", "pairing"]),
    st.lists(
        st.tuples(st.sampled_from(["phi1", "phi2", "p12", "p21"]), st.integers(0, 10**6), st.integers(1, 4)),
        max_size=3,
    ),
)
def test_batched_peirce_checks_match_the_per_row_reference(case, edits):
    """Corrupted coordinates fail the batched `coordinate_maps` checks with
    the message, and the row, that the per-row loop meets first; intact
    ones also reassemble and meet the determinant formula row by row."""
    g = _peirce_case(case)
    fields = {name: getattr(g, name).copy() for name in ("phi1", "phi2", "p12", "p21")}
    for name, where, delta in edits:
        flat = fields[name].reshape(-1)
        flat[where % flat.size] = (flat[where % flat.size] + delta) % g.algebra.char
    bad = dataclasses.replace(g, **fields)
    if bad.ch is not None:
        assert _raised(oracles.coordinate_maps, bad) == _loop_coordinate_failure(bad)
    if not edits:
        assert _loop_gma_failure(bad) is None


# ---- stacked Cayley-Hamilton checks against their per-element reference --


def _loop_verify_failure(ch, rng_seed=0, samples=100):
    """First failure of `oracles.verify_ch`, one basis pair, one sample and
    one group pair at a time.  `verify_ch` does not sample: a sample can
    fail only after a basis pair has, so the messages still agree."""
    al = ch.algebra
    eye = np.eye(al.n, dtype=np.int64)
    for i in range(al.n):
        for j in range(i, al.n):
            if ch.ch_el(eye[i], eye[j]).any():
                return f"polarized identity fails on basis pair ({i},{j})"
    rng = random.Random(rng_seed)
    for _ in range(samples if al.n else 0):
        if oracles.ch_at(ch, oracles.random_element(al, rng)).any():
            return "characteristic polynomial fails on a sampled element"
    grp = ch.psr.group
    for g in grp.elements():
        for h in grp.elements():
            if not np.array_equal(al.mul(ch.rho_mat[g], ch.rho_mat[h]), ch.rho_mat[grp.mul(g, h)]):
                return "group images fail to multiply in the quotient"
    return None


@functools.cache
def _ch_case(name):
    psr = {"s3f7": lambda: s3_irr_psrep(F7), "c4": c4_diag_psrep, "d5t2": d5_t2_psrep}[name]()
    return gma.ch_quotient(psr)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["s3f7", "c4", "d5t2"]),
    st.lists(
        st.tuples(st.sampled_from(["rho_mat", "t_matrix"]), st.integers(0, 10**6), st.integers(1, 6)),
        max_size=3,
    ),
)
def test_stacked_ch_verify_matches_the_per_element_reference(case, edits):
    """Corrupted group images or trace matrices fail the stacked `verify_ch`
    with the message the per-element loops meet first; intact ones pass both."""
    ch = _ch_case(case)
    fields = {name: getattr(ch, name).copy() for name in ("rho_mat", "t_matrix")}
    for name, where, delta in edits:
        flat = fields[name].reshape(-1)
        flat[where % flat.size] = (flat[where % flat.size] + delta) % ch.algebra.char
    bad = dataclasses.replace(ch, **fields)
    assert _raised(oracles.verify_ch, bad) == _loop_verify_failure(bad)
    if not edits:
        assert _loop_verify_failure(bad) is None


@pytest.mark.parametrize("case", ["s3f7", "c4", "d5t2", "c2z25"])
def test_stacked_ch_generators_and_samples_match_the_loops(case, monkeypatch):
    """`ch_quotient` hands `two_sided_ideal_rows` the rows of the pair loop
    over i <= j, in its order, and a stacked `random_element` draw is the
    stream of single draws: both bit-identical."""
    psr = {"s3f7": lambda: s3_irr_psrep(F7), "c4": c4_diag_psrep, "d5t2": d5_t2_psrep, "c2z25": c2_z25_psrep}[case]()
    seen, original = [], gma.two_sided_ideal_rows

    def capture(alg, gens):
        seen.append(np.array(gens, copy=True))
        return original(alg, gens)

    monkeypatch.setattr(gma, "two_sided_ideal_rows", capture)
    ch = gma.ch_quotient(psr)
    ext = psrep.extended_forms(psr)
    eye = np.eye(ext.algebra.n, dtype=np.int64)
    want = np.array([ext.ch_el(eye[i], eye[j]) for i in range(ext.algebra.n) for j in range(i, ext.algebra.n)])
    assert len(seen) == 1 and seen[0].dtype == want.dtype and np.array_equal(seen[0], want)
    for al in (ch.algebra, ext.algebra):
        for seed in (0, 1, 7):
            rng = random.Random(seed)
            singles = np.array([oracles.random_element(al, rng) for _ in range(100)], dtype=np.int64).reshape(-1, al.n)
            stacked = oracles.random_element(al, random.Random(seed), 100)
            assert stacked.dtype == singles.dtype and np.array_equal(stacked, singles)


def _samples_fail(ch, rng_seed=0, samples=100) -> bool:
    """The sampled check that the Cayley-Hamilton check made before its basis pairs
    were shown to cover every element: ch_at on `samples` random elements."""
    return bool(oracles.ch_at(ch, oracles.random_element(ch.algebra, random.Random(rng_seed), samples)).any())


@pytest.mark.parametrize("case", ["s3f7", "c4", "d5t2"])
def test_basis_pairs_catch_every_corruption_the_samples_caught(case):
    """ch_el is bilinear and symmetric with ch_el(x, x) = 2 ch_at(x), so a
    failing sample means a failing basis pair, whatever the constants:
    corrupted structure constants and trace matrices, one entry each."""
    ch = _ch_case(case)
    al, rng = ch.algebra, random.Random(case)
    caught = 0
    for trial in range(60):
        table, t_matrix = al.table.copy(), ch.t_matrix.copy()
        flat = (table if trial % 2 else t_matrix).reshape(-1)
        where = rng.randrange(flat.size)
        flat[where] = (flat[where] + rng.randrange(1, al.char)) % al.char
        bad_al = algebras.AssocAlgebra(al.p, al.k, table, al.one, al.base, al.base_embed, name=al.name)
        bad = dataclasses.replace(ch, algebra=bad_al, t_matrix=t_matrix)
        if _samples_fail(bad):
            caught += 1
            assert _raised(oracles.verify_ch, bad).startswith("polarized identity fails on basis pair")
    assert caught >= 20


def _loop_trace_one_idempotents(ch):
    """Every trace-1 idempotent, one element at a time, sorted."""
    al = ch.algebra
    out = [
        x
        for x in (np.array(t, dtype=np.int64) for t in itertools.product(range(al.char), repeat=al.n))
        if np.array_equal(al.mul(x, x), x) and np.array_equal(ch.t_el(x), ch.base.one)
    ]
    return sorted(out, key=lambda v: tuple(map(int, v)))


@pytest.mark.parametrize("case", ["m2f5", "m2f7", "split-residual"])
def test_stacked_trace_one_idempotents_match_the_per_element_reference(case):
    if case == "split-residual":
        ch = gma.ch_quotient(d5_t2_psrep()).residual
        assert ch.split["case"] == "split"
        ch = ch.ch
    else:
        ch = gma.ch_quotient(s3_irr_psrep({"m2f5": F5, "m2f7": F7}[case]))
    got = gma._trace_one_idempotents(ch)
    want = _loop_trace_one_idempotents(ch)
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    if case != "split-residual":
        # rank-1 idempotents of M2(F_q): a line for the image, a complement for the kernel
        q = ch.base.char
        assert ch.algebra.n == 4 and len(got) == q * q + q
    # the budget is its caller's: past it the residual is refused before it is enumerated
    res = ch.residual
    with pytest.raises(BudgetExceeded):
        gma._residual_targets(res, None, res.ch.algebra.size - 1)


# ---- source rules: one builder each for ChAlgebra and GmaAlgebra -------


def _constructions(cls):
    """(file, enclosing class.function) of each `cls(...)` call in the package."""
    found = set()

    def walk(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == cls:
                found.add((path.name, inner))
            walk(child, inner, path)

    for path in sorted(pathlib.Path(gma.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path)
    return found


def test_ch_algebra_is_constructed_in_one_function():
    """One builder: `ch_quotient` and `ch_base_change` both go through
    `_ch_algebra`, and so through every check it makes."""
    assert _constructions("ChAlgebra") == {("gma.py", "_ch_algebra")}


def _gma_calls(name, module=gma):
    """Every call made by the `module` function `name` and, transitively, by
    the module functions it calls, as written (e.g. "linalg.howell_form")."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, calls = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.add(fn)
            calls |= {ast.unparse(n.func) for n in ast.walk(defs[fn]) if isinstance(n, ast.Call)}
            todo += [c for c in calls if c in defs]
    return calls


def test_gma_algebra_comes_from_one_stacked_check():
    """`_read_gma` is the one builder of a GmaAlgebra, and reads it off one
    `_check_gma_stack` row with no factored corner.  Each row it reads was
    checked first: `gma_decompose`, for the tests' `oracles.abstract_gma`
    too, runs the check, and the scenario's `_State.gma` reads the row that
    `ordinary._decide` checked and returned with its verdict."""
    assert _constructions("GmaAlgebra") == {("gma.py", "_read_gma")}
    assert "gma_decompose" in _gma_calls("abstract_gma", oracles)
    calls = {
        (path.name, node.name): [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]
        for path in sorted(pathlib.Path(gma.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    readers = {key for key, called in calls.items() if any(c.split(".")[-1] == "_read_gma" for c in called)}
    assert readers == {("gma.py", "gma_decompose"), ("scenarios.py", "gma")}
    assert "_check_gma_stack" in calls[("gma.py", "gma_decompose")]
    # the row `_State.gma` reads is the decision's, which `_decide` checked
    assert "ordinary._decide" in calls[("scenarios.py", "decision")]
    assert "_check_gma_stack" in calls[("ordinary.py", "_decide")]
    calls = _gma_calls("gma_decompose")
    assert not [c for c in calls if "FactoredSpan" in c or "span_equal" in c]
