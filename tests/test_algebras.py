"""Associative algebra layer: group algebras, matrix algebras, ideals, quotients."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import algebras, groups, linalg, rings
from exalg.errors import InputError, InvariantViolation

F5 = rings.zmod_ring(5, 1)
F7 = rings.zmod_ring(7, 1)
Z25 = rings.zmod_ring(5, 2)
T2 = rings.truncated_poly_ring(F5, 2, name="F5[t]/t^2")


def test_group_algebra_of_c3():
    c3 = groups.cyclic_group(3)
    e = algebras.group_algebra(F5, c3)
    e.check_algebra()
    assert e.n == 3
    g = np.array([0, 1, 0])
    assert np.array_equal(e.mul(g, g), np.array([0, 0, 1]))
    assert np.array_equal(e.mul(e.mul(g, g), g), e.one)
    assert np.array_equal(e.mul_matrix(g), e.right_mul_matrix(g))  # central: abelian group


def test_group_algebra_noncommutative():
    s3 = groups.symmetric_3()
    e = algebras.group_algebra(F7, s3)
    e.check_algebra()
    assert e.n == 6
    r = np.zeros(6, dtype=np.int64)
    r[1] = 1
    s = np.zeros(6, dtype=np.int64)
    s[3] = 1
    assert not np.array_equal(e.mul(r, s), e.mul(s, r))
    assert not np.array_equal(e.mul_matrix(r), e.right_mul_matrix(r))
    # the base stays central
    x = e.scalar(np.array([3]))
    assert np.array_equal(e.mul_matrix(x), e.right_mul_matrix(x))


def test_group_algebra_over_extended_base():
    c2 = groups.cyclic_group(2)
    e = algebras.group_algebra(T2, c2)
    e.check_algebra()
    assert e.n == 4
    assert e.base is T2
    x = e.scalar(np.array([0, 1]))
    assert np.array_equal(e.mul_matrix(x), e.right_mul_matrix(x))
    assert np.array_equal(e.mul(x, x), e.zero())  # t^2 = 0 upstairs too


def test_group_algebra_refuses_dimension_past_the_bound_before_building():
    """|G| * dim(base) = 65 is refused as an input error, before its
    65^3 table is allocated; 64 still builds."""
    t5 = rings.truncated_poly_ring(F5, 5)
    assert algebras.group_algebra(F5, groups.cyclic_group(64)).n == algebras.MAX_GROUP_ALGEBRA_DIM == 64
    with pytest.raises(InputError, match=r"group algebra of dimension 13 \* 5 = 65 exceeds 64"):
        algebras.group_algebra(t5, groups.cyclic_group(13))


def test_matrix_algebra_m2():
    m2 = algebras.matrix_algebra(F5, 2)
    m2.check_algebra()
    assert m2.n == 4
    e01 = np.array([0, 1, 0, 0])
    e10 = np.array([0, 0, 1, 0])
    e00 = np.array([1, 0, 0, 0])
    e11 = np.array([0, 0, 0, 1])
    assert np.array_equal(m2.mul(e01, e10), e00)
    assert np.array_equal(m2.mul(e10, e01), e11)
    assert np.array_equal(m2.mul(e01, e01), m2.zero())
    assert not np.array_equal(m2.mul_matrix(e01), m2.right_mul_matrix(e01))
    assert np.array_equal(m2.mul_matrix(m2.one), m2.right_mul_matrix(m2.one))


def test_commutative_api_is_blocked():
    m2 = algebras.matrix_algebra(F5, 2)
    with pytest.raises(InputError):
        m2.check_ring()
    with pytest.raises(InputError):
        _ = m2.is_local


def test_two_sided_ideal_in_m2_is_everything():
    # M2(F5) is simple: any nonzero element generates the unit ideal
    m2 = algebras.matrix_algebra(F5, 2)
    rows = algebras.two_sided_ideal_rows(m2, [np.array([0, 1, 0, 0])])
    assert linalg.span_log_size(rows, 5, 1) == 4


def test_two_sided_vs_one_sided():
    # upper triangular 2x2 matrices: E01 generates a two-sided ideal of dim 1
    # inside the full algebra it is everything; inside the triangular algebra
    # the left ideal differs from the right ideal
    f = F5

    def idx(i, j):
        return {(0, 0): 0, (0, 1): 1, (1, 1): 2}[(i, j)]

    table = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j) in [(0, 0), (0, 1), (1, 1)]:
        for (i2, j2) in [(0, 0), (0, 1), (1, 1)]:
            if j == i2:
                table[idx(i, j), idx(i2, j2), idx(i, j2)] = 1
    one = np.array([1, 0, 1])
    embed = np.array([[1, 0, 1]])
    tri = algebras.AssocAlgebra(5, 1, table, one, f, embed, name="tri2")
    tri.check_algebra()
    rows = algebras.two_sided_ideal_rows(tri, [np.array([0, 1, 0])])
    assert rows.tolist() == [[0, 1, 0]]


def test_subalgebra_closure():
    m2 = algebras.matrix_algebra(F5, 2)
    # diagonal matrices from one idempotent
    rows = oracles.subalgebra_closure(m2, [np.array([1, 0, 0, 0])])
    assert linalg.span_log_size(rows, 5, 1) == 2
    # E01 and E10 generate everything
    rows = oracles.subalgebra_closure(m2, [np.array([0, 1, 0, 0]), np.array([0, 0, 1, 0])])
    assert linalg.span_log_size(rows, 5, 1) == 4


def test_quotient_algebra_group_to_scalar():
    # F5[C2] / (g - 1) = F5
    c2 = groups.cyclic_group(2)
    e = algebras.group_algebra(F5, c2)
    gen = np.array([-1, 1], dtype=np.int64) % 5
    rows = algebras.two_sided_ideal_rows(e, [gen])
    q = algebras.quotient_algebra(e, rows)
    assert q.ring.n == 1
    assert np.array_equal(q.proj(np.array([0, 1])), q.proj(np.array([1, 0])))
    # the other character: F5[C2] / (g + 1) = F5 with g -> -1
    rows2 = algebras.two_sided_ideal_rows(e, [np.array([1, 1])])
    q2 = algebras.quotient_algebra(e, rows2)
    assert q2.ring.n == 1
    assert np.array_equal(q2.proj(np.array([0, 1])), (-q2.proj(np.array([1, 0]))) % 5)


def test_quotient_algebra_char_drop():
    c2 = groups.cyclic_group(2)
    e = algebras.group_algebra(Z25, c2)
    rows = algebras.two_sided_ideal_rows(e, [5 * e.one % 25])
    q = algebras.quotient_algebra(e, rows)
    assert q.ring.k == 1 and q.ring.n == 2
    assert q.ring.base is Z25


def test_quotient_to_zero_algebra():
    m2 = algebras.matrix_algebra(F5, 2)
    rows = algebras.two_sided_ideal_rows(m2, [m2.one])
    q = algebras.quotient_algebra(m2, rows)
    assert q.ring.is_zero


def test_zero_algebra_ideals_and_quotient():
    zero = algebras.matrix_algebra(F5, 2)
    zero = algebras.quotient_algebra(zero, algebras.two_sided_ideal_rows(zero, [zero.one])).ring
    assert zero.n == 0
    for gens in ([], np.zeros((3, 0), dtype=np.int64)):
        assert algebras.two_sided_ideal_rows(zero, gens).shape == (0, 0)
    assert algebras.quotient_algebra(zero, np.zeros((0, 0), dtype=np.int64)).ring.n == 0


def _loop_algebra_failure(alg):
    """First unit or centrality failure, one basis element at a time."""
    eye = np.eye(alg.n, dtype=np.int64)
    for i, e in enumerate(eye):
        if not (np.array_equal(alg.mul(alg.one, e), e) and np.array_equal(alg.mul(e, alg.one), e)):
            return f"one fails on basis {i}"
    for a, u in enumerate(alg.base_embed):
        if any(not np.array_equal(alg.mul(u, e), alg.mul(e, u)) for e in eye):
            return f"base image {a} is not central"
    return None


def _tampered(alg, one=None, embed=None):
    """A copy of alg with its unit or base embedding replaced."""
    one = alg.one if one is None else np.asarray(one) % alg.char
    embed = alg.base_embed if embed is None else embed
    return algebras.AssocAlgebra(alg.p, alg.k, alg.table, one, alg.base, embed, name="tampered")


def test_stacked_algebra_checks_name_the_first_failure_of_the_loops():
    m2 = algebras.matrix_algebra(F5, 2)  # basis E11, E12, E21, E22
    m2t = algebras.matrix_algebra(T2, 2)  # basis E_ij x (1, t)
    e21 = np.array([0, 0, 1, 0])
    t_e11 = np.zeros((2, 8), dtype=np.int64)
    t_e11[0], t_e11[1, 1] = m2t.base_embed[0], 1  # 1 -> 1, t -> t E11
    cases = [
        # one = E11: E12 * one = 0 fails at 1, before one * E21 = 0 at 2
        (_tampered(m2, one=[1, 0, 0, 0]), "one fails on basis 1"),
        # one = 1 + E21: one * E11 = E11 + E21 fails at 0, while E11 * one = E11
        (_tampered(m2, one=m2.one + e21), "one fails on basis 0"),
        (_tampered(m2t, embed=t_e11), "base image 1 is not central"),
        (m2t, None),
    ]
    for alg, message in cases:
        assert _loop_algebra_failure(alg) == message
        if message is None:
            alg.check_algebra()
            continue
        with pytest.raises(InvariantViolation) as err:
            alg.check_algebra()
        assert str(err.value) == message


def test_scalar_action_matches_base():
    s3 = groups.symmetric_3()
    e = algebras.group_algebra(F7, s3)
    import random

    rng = random.Random(1)
    for _ in range(10):
        a = oracles.random_element(F7, rng)
        b = oracles.random_element(F7, rng)
        x = oracles.random_element(e, rng)
        lhs = e.amul(F7.mul(a, b), x)
        rhs = e.amul(a, e.amul(b, x))
        assert np.array_equal(lhs, rhs)


M5 = algebras.matrix_algebra(Z25, 5)  # dimension 25: sampled when the term bound is 0
OFF_DIAGONAL = [i for i in range(25) if i % 6]  # E_ab with a != b leave the unit's rows alone


@given(
    i=st.sampled_from(OFF_DIAGONAL),
    j=st.sampled_from(OFF_DIAGONAL),
    l=st.integers(0, 24),
    delta=st.integers(1, 24),
)
@settings(max_examples=20, deadline=None)
def test_sampled_associativity_catches_one_corrupt_constant(i, j, l, delta):
    table = M5.table.copy()
    table[i, j, l] = (table[i, j, l] + delta) % 25
    bad = algebras.AssocAlgebra(5, 2, table, M5.one, Z25, M5.base_embed)
    try:
        bad.check_algebra()
    except InvariantViolation as e:
        assert str(e) == "associativity fails"
    else:
        return  # this corruption happens to keep the algebra associative
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_ASSOC_TERMS", 0)
        with pytest.raises(InvariantViolation, match="associativity fails on sample"):
            bad.check_algebra()


def test_sampled_associativity_accepts_an_algebra_past_the_full_limit(monkeypatch):
    monkeypatch.setattr(rings, "_ASSOC_TERMS", 0)
    M5.check_algebra()
