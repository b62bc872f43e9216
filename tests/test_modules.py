"""Module layer tests.

Membership in an additive span (`span_contains`) is treated as a trusted
primitive here; it has its own brute-force oracle in test_linalg.  The
double-annihilator computation and the Fitting machinery are checked against
direct elementwise definitions built on that primitive.
"""

import itertools
import random

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rings import bicusp_ring

from exalg import linalg, modules, rings
from exalg.errors import BudgetExceeded, InputError, InvariantViolation

F5 = rings.zmod_ring(5, 1)
F25 = rings.field_ring(5, 2)
Z25 = rings.zmod_ring(5, 2)
T3 = rings.truncated_poly_ring(F5, 3, name="F5[t]/t^3")
T4 = rings.truncated_poly_ring(F5, 4, name="F5[t]/t^4")


def brute_annihilator_set(mod):
    r = mod.ring
    out = set()
    for x in oracles.elements(r):
        ok = True
        for j in range(mod.g):
            vec = np.zeros(mod.g * r.n, dtype=np.int64)
            vec[j * r.n : (j + 1) * r.n] = x
            if not linalg.span_contains(mod.relations, vec, r.p, r.k):
                ok = False
                break
        if ok:
            out.add(tuple(map(int, x)))
    return out


def span_set_small(rows, char, ncols):
    seen = {(0,) * ncols}
    frontier = list(seen)
    vecs = {tuple(int(c) % char for c in v) for v in rows}
    vecs.discard((0,) * ncols)
    while frontier:
        nxt = []
        for x in frontier:
            for v in vecs:
                y = tuple((a + b) % char for a, b in zip(x, v))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def el(r, coeffs):
    return np.asarray(coeffs, dtype=np.int64) % r.char


# ---- frozen presentations -------------------------------------------


def test_cyclic_t2_quotient():
    pres = np.zeros((1, 1, 4), dtype=np.int64)
    pres[0, 0, 2] = 1  # t^2
    m = oracles.FinModule.from_presentation(T4, pres)
    assert m.length() == 2
    assert m.annihilator() == rings.Ideal(T4, [el(T4, [0, 0, 1, 0])])
    assert m.minimal_generator_count() == 1
    assert modules.fitting_ideal(T4, pres) == m.annihilator()


def test_free_module():
    m = oracles.FinModule(T3, 2, np.zeros((0, 6), dtype=np.int64))
    assert m.length() == 6
    assert m.annihilator().is_zero()
    assert m.minimal_generator_count() == 2
    empty = np.zeros((0, 2, 3), dtype=np.int64)
    assert modules.fitting_ideal(T3, empty).is_zero()


def test_fitting_strictly_below_annihilator():
    # (T4/t)^2: annihilator (t), zeroth Fitting ideal (t^2)
    pres = np.zeros((2, 2, 4), dtype=np.int64)
    pres[0, 0, 1] = 1
    pres[1, 1, 1] = 1
    m = oracles.FinModule.from_presentation(T4, pres)
    assert m.length() == 2
    t = rings.Ideal(T4, [el(T4, [0, 1, 0, 0])])
    t2 = t.mul_ideal(t)
    assert m.annihilator() == t
    fit = modules.fitting_ideal(T4, pres)
    assert fit == t2
    assert m.annihilator().contains_ideal(fit)
    assert not fit.contains_ideal(m.annihilator())


def test_mixed_free_and_torsion():
    pres = np.zeros((1, 2, 1), dtype=np.int64)
    pres[0, 0, 0] = 5  # Z25/(5) + Z25
    m = oracles.FinModule.from_presentation(Z25, pres)
    assert m.length() == 3
    assert m.annihilator().is_zero()
    assert modules.fitting_ideal(Z25, pres).is_zero()  # fewer relations than generators


def test_zero_module():
    pres = np.zeros((1, 1, 1), dtype=np.int64)
    pres[0, 0, 0] = 1
    m = oracles.FinModule.from_presentation(F5, pres)
    assert m.is_zero() and m.length() == 0
    assert m.annihilator().is_unit_ideal()


def test_stability_check_rejects_bare_additive_rows():
    with pytest.raises(InvariantViolation):
        oracles.FinModule(T3, 1, np.array([[0, 1, 0]]))


# ---- ideal quotients ------------------------------------------------


def test_ideal_quotient_lengths_in_t4():
    t = rings.Ideal(T4, [el(T4, [0, 1, 0, 0])])
    t2 = t.mul_ideal(t)
    t3 = t2.mul_ideal(t)
    zero = rings.Ideal(T4, np.zeros((0, 4), dtype=np.int64))
    assert oracles.module_from_ideal_quotient(T4, t, t3).length() == 2
    m = oracles.module_from_ideal_quotient(T4, t, t2)
    assert m.length() == 1
    assert m.annihilator() == t
    assert oracles.module_from_ideal_quotient(T4, t, zero).length() == 3
    unit = rings.Ideal(T4, [T4.one])
    assert oracles.module_from_ideal_quotient(T4, unit, unit).is_zero()
    with pytest.raises(InputError):
        oracles.module_from_ideal_quotient(T4, t2, t)


def test_minimal_generators_by_nakayama():
    # two-generated maximal ideals
    bicusp = bicusp_ring()
    zero = rings.Ideal(bicusp, np.zeros((0, 4), dtype=np.int64))
    m = oracles.module_from_ideal_quotient(bicusp, bicusp.maximal_ideal(), zero)
    assert m.minimal_generator_count() == 2
    t_ideal = rings.Ideal(T4, [el(T4, [0, 1, 0, 0])])
    zero4 = rings.Ideal(T4, np.zeros((0, 4), dtype=np.int64))
    assert oracles.module_from_ideal_quotient(T4, t_ideal, zero4).minimal_generator_count() == 1


# ---- oracles on random presentations --------------------------------


@pytest.mark.parametrize("r", [T3, Z25, F25], ids=lambda r: r.name)
def test_annihilator_vs_bruteforce(r):
    rng = random.Random(len(r.name) + r.char)
    for _ in range(6):
        g = rng.randrange(1, 3)
        rels = rng.randrange(0, 3)
        pres = np.array(
            [[[rng.randrange(r.char) for _ in range(r.n)] for _ in range(g)] for _ in range(rels)],
            dtype=np.int64,
        ).reshape(rels, g, r.n)
        m = oracles.FinModule.from_presentation(r, pres)
        ann = m.annihilator()
        assert span_set_small(ann.basis, r.char, r.n) == brute_annihilator_set(m)


@pytest.mark.parametrize("r", [T3, Z25], ids=lambda r: r.name)
def test_fitting_contained_in_annihilator(r):
    rng = random.Random(977 + r.k)
    for _ in range(30):
        g = rng.randrange(1, 3)
        rels = rng.randrange(g, g + 3)
        pres = np.array(
            [[[rng.randrange(r.char) for _ in range(r.n)] for _ in range(g)] for _ in range(rels)],
            dtype=np.int64,
        )
        m = oracles.FinModule.from_presentation(r, pres)
        fit = modules.fitting_ideal(r, pres)
        assert m.annihilator().contains_ideal(fit)


def test_presentation_row_order_is_irrelevant():
    rng = random.Random(7)
    pres = np.array(
        [[[rng.randrange(5) for _ in range(3)] for _ in range(2)] for _ in range(3)],
        dtype=np.int64,
    )
    a = oracles.FinModule.from_presentation(T3, pres)
    b = oracles.FinModule.from_presentation(T3, pres[::-1])
    assert np.array_equal(a.relations, b.relations)
    assert a.annihilator() == b.annihilator()


# ---- determinants ---------------------------------------------------


def test_ring_det_matches_cofactor_expansion():
    rng = random.Random(3)
    for r in [T3, F25]:
        for _ in range(5):
            m2 = np.array(
                [[[rng.randrange(r.char) for _ in range(r.n)] for _ in range(2)] for _ in range(2)]
            )
            want = r.sub(r.mul(m2[0, 0], m2[1, 1]), r.mul(m2[0, 1], m2[1, 0]))
            assert np.array_equal(modules.ring_det(r, m2), want)
            m3 = np.array(
                [[[rng.randrange(r.char) for _ in range(r.n)] for _ in range(3)] for _ in range(3)]
            )
            want3 = r.zero()
            for j in range(3):
                cols = [c for c in range(3) if c != j]
                minor = r.sub(
                    r.mul(m3[1, cols[0]], m3[2, cols[1]]),
                    r.mul(m3[1, cols[1]], m3[2, cols[0]]),
                )
                term = r.mul(m3[0, j], minor)
                want3 = r.add(want3, r.smul(1 if j % 2 == 0 else -1, term))
            assert np.array_equal(modules.ring_det(r, m3), want3)


def test_det_identity_and_budget():
    eye = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        eye[i, i] = T3.one
    assert np.array_equal(modules.ring_det(T3, eye), T3.one)
    with pytest.raises(BudgetExceeded):
        modules.ring_det(T3, np.zeros((7, 7, 3), dtype=np.int64))
    with pytest.raises(BudgetExceeded):
        modules.fitting_ideal(F5, np.zeros((30, 4, 1), dtype=np.int64), budget=10)


# ---- the shared minor sweep against a permutation sum ----------------

NONLOCAL = oracles.product_ring(F5, F25, name="F5xF25")


def permutation_det(r, mat):
    """Determinant as the sum over permutations of signed ring products."""
    acc = r.zero()
    for perm in itertools.permutations(range(mat.shape[0])):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = r.one.copy()
        for i, j in enumerate(perm):
            term = r.mul(term, mat[i, j])
        acc = r.add(acc, r.smul((-1) ** inversions, term))
    return acc


def _random_rows(data, r, rels, g):
    entries = st.lists(st.integers(0, r.char - 1), min_size=rels * g * r.n, max_size=rels * g * r.n)
    return np.array(data.draw(entries), dtype=np.int64).reshape(rels, g, r.n)


@pytest.mark.parametrize("r", [T3, Z25, F25, NONLOCAL], ids=lambda r: r.name)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_ring_det_matches_permutation_sum(r, data):
    g = data.draw(st.integers(0, 5))
    mat = _random_rows(data, r, g, g)
    assert np.array_equal(modules.ring_det(r, mat), permutation_det(r, mat))


@pytest.mark.parametrize("r", [T3, Z25, F25, NONLOCAL], ids=lambda r: r.name)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_fitting_gens_are_the_minors_in_combinations_order(r, data):
    g = data.draw(st.integers(1, 3))
    rels = data.draw(st.integers(g, g + 3))
    pres = _random_rows(data, r, rels, g)
    want = [permutation_det(r, pres[list(c)]) for c in itertools.combinations(range(rels), g)]
    assert np.array_equal(modules._maximal_minors(r, pres), np.array(want))
