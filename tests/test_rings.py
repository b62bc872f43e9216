"""Ring layer checked against element-listing oracles.

Every oracle here works by enumerating elements and multiplying them out,
never through the Howell/Smith machinery under test.
"""

import ast
import itertools
import pathlib

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exalg import algebras, linalg, rings, towers
from exalg.errors import InputError, InvariantViolation, NonFreeQuotientError

# ---- oracles --------------------------------------------------------


def additive_closure(vectors, char, ncols):
    seen = {(0,) * ncols}
    frontier = list(seen)
    vecs = {tuple(int(c) % char for c in v) for v in vectors}
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


def span_set(rows, r):
    return additive_closure(list(rows), r.char, r.n)


def brute_ideal_elements(r, gens):
    """Additive closure of {x * g : x in R, g in gens}."""
    prods = []
    for g in gens:
        g = np.asarray(g, dtype=np.int64)
        for x in oracles.elements(r):
            prods.append(r.mul(x, g))
    return additive_closure(prods, r.char, r.n)


def all_elements(r):
    return np.array(list(oracles.elements(r)), dtype=np.int64).reshape(-1, r.n)


def brute_unit_mask(r, elems):
    """x is a unit iff y -> x*y permutes the ring."""
    out = np.zeros(len(elems), dtype=bool)
    for i, x in enumerate(elems):
        rows = (elems @ r.mul_matrix(x)) % r.char
        out[i] = len(np.unique(rows, axis=0)) == len(elems)
    return out


def brute_nilpotent(r, x):
    return not r.pow_el(x, r.n * r.k + 1).any()


def brute_socle_size(r, elems, unit_mask):
    """Count elements killed by every nonunit (local rings)."""
    nonunits = elems[~unit_mask]
    count = 0
    for x in elems:
        if not ((nonunits @ r.mul_matrix(x)) % r.char).any():
            count += 1
    return count


# ---- shared fixtures -------------------------------------------------


def ring_from_mult(p, names, prod, name):
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}
    table = np.zeros((n, n, n), dtype=np.int64)
    for a in names:
        for b in names:
            for c, coeff in prod(a, b).items():
                table[idx[a], idx[b], idx[c]] = coeff % p
    one = np.zeros(n, dtype=np.int64)
    one[idx["1"]] = 1
    r = oracles.local_ring(p, 1, table, one, one[:, None], name)  # rho: the coordinate of 1
    r.check_ring()
    return r


def fat_point_ring():
    # F5[x,y] / (x^2, xy, y^2)
    def prod(a, b):
        if a == "1":
            return {b: 1}
        if b == "1":
            return {a: 1}
        return {}

    return ring_from_mult(5, ["1", "x", "y"], prod, "fatpoint")


def bicusp_ring():
    # F5[x,y] / (x^2, y^2)
    def prod(a, b):
        if a == "1":
            return {b: 1}
        if b == "1":
            return {a: 1}
        if {a, b} == {"x", "y"}:
            return {"xy": 1}
        return {}

    return ring_from_mult(5, ["1", "x", "y", "xy"], prod, "bicusp")


def square_zero_3():
    # F5[x,y,z] / (all degree-2 monomials)
    def prod(a, b):
        if a == "1":
            return {b: 1}
        if b == "1":
            return {a: 1}
        return {}

    return ring_from_mult(5, ["1", "x", "y", "z"], prod, "sqzero3")


F5 = rings.zmod_ring(5, 1)
F25 = rings.field_ring(5, 2)
F27 = rings.field_ring(3, 3)
Z25 = rings.zmod_ring(5, 2)
Z27 = rings.zmod_ring(3, 3)
T2 = rings.truncated_poly_ring(F5, 2, name="F5[t]/t^2")
T3 = rings.truncated_poly_ring(F5, 3, name="F5[t]/t^3")
T4 = rings.truncated_poly_ring(F5, 4, name="F5[t]/t^4")
T2_F25 = rings.truncated_poly_ring(F25, 2, name="F25[t]/t^2")
Z25Y = rings.truncated_poly_ring(Z25, 2, name="Z25[y]/y^2")

SMALL_LOCALS = [F5, F25, F27, Z25, Z27, T2, T3, T2_F25, Z25Y]


# ---- smith form -----------------------------------------------------


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (3, 3)])
def test_smith_form_diagonalizes(p, k):
    import random

    rng = random.Random(1000 * p + k)
    m = p**k
    for _ in range(25):
        nr = rng.randrange(0, 4)
        nc = rng.randrange(1, 4)
        rows = np.array(
            [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)], dtype=np.int64
        ).reshape(nr, nc)
        exps, w, winv = rings.smith_form(linalg.howell_form(rows, p, k, ncols=nc), p, k, nc)
        assert np.array_equal((w @ winv) % m, np.eye(nc, dtype=np.int64))
        diag = [p ** int(exps[c]) * np.eye(nc, dtype=np.int64)[c] for c in range(nc) if exps[c] < k]
        lhs = linalg.howell_form((rows @ w) % m, p, k, ncols=nc)
        rhs = linalg.howell_form(np.array(diag, dtype=np.int64).reshape(-1, nc), p, k, ncols=nc)
        assert linalg.span_equal(lhs, rhs)


# ---- ring axioms, units, nilpotents ---------------------------------


@pytest.mark.parametrize("r", SMALL_LOCALS, ids=lambda r: r.name)
def test_ring_axioms(r):
    r.check_ring()
    assert r.size == r.char**r.n


@pytest.mark.parametrize("r", [F5, F25, Z25, Z27, T2], ids=lambda r: r.name)
def test_units_and_inverses_vs_bruteforce(r):
    elems = all_elements(r)
    mask = brute_unit_mask(r, elems)
    for x, is_u in zip(elems, mask):
        assert r.is_unit(x) == is_u
        if is_u:
            assert np.array_equal(r.mul(x, r.inv(x)), r.one)
        else:
            with pytest.raises(InputError):
                r.inv(x)


def test_zero_ring():
    z = oracles.zero_ring(5)
    assert z.is_zero and z.size == 1
    z.check_ring()
    assert z.is_unit(z.zero())
    with pytest.raises(InputError):
        rings.gorenstein_test(z)


def test_zero_ring_ideals_are_the_zero_ideal():
    z = oracles.zero_ring(5)
    ideals = [
        z.radical_ideal(),
        rings.Ideal.from_basis(z, np.zeros((0, 0), dtype=np.int64)),
        rings.Ideal(z, []),
    ]
    ideals.append(ideals[1].annihilator())
    for ideal in ideals:
        assert ideal.basis.shape == (0, 0) and ideal.is_zero()
        assert ideal == ideals[0] and ideal.log_size() == 0
    # 0 = 1 in the zero ring, so its zero ideal is also the unit ideal
    assert ideals[0].is_unit_ideal()
    assert ideals[0].mul_ideal(ideals[1]).is_zero()


def test_zero_ring_quotient_is_the_zero_ring():
    z = oracles.zero_ring(5)
    q = rings.quotient_ring(z, rings.Ideal(z, np.zeros((0, 0), dtype=np.int64)))
    assert q.ring.n == 0 and q.ring.is_zero
    exps, w, winv = rings.smith_form(np.zeros((0, 0), dtype=np.int64), 5, 1, 0)
    assert exps.shape == (0,) and w.shape == winv.shape == (0, 0)


# ---- local structure ------------------------------------------------


@pytest.mark.parametrize("r", SMALL_LOCALS, ids=lambda r: r.name)
def test_local_rings_detected(r):
    assert r.is_local
    assert oracles.local_factor_count(r) == 1


def test_products_are_not_local():
    for a, b in [(F5, F5), (F25, F5), (T2, F5)]:
        pr = oracles.product_ring(a, b)
        pr.check_ring()
        assert not pr.is_local
        assert oracles.local_factor_count(pr) == 2
        with pytest.raises(InputError):
            pr.maximal_ideal()


@pytest.mark.parametrize("r", [F25, Z25, Z27, T3, Z25Y], ids=lambda r: r.name)
def test_radical_is_nilpotent_set(r):
    rad = span_set(r.radical_rows(), r)
    brute = {tuple(map(int, x)) for x in oracles.elements(r) if brute_nilpotent(r, x)}
    assert rad == brute


@pytest.mark.parametrize("r", SMALL_LOCALS, ids=lambda r: r.name)
def test_maximal_ideal_is_nonunit_set(r):
    if r.size > 700:
        pytest.skip("enumeration oracle kept small")
    elems = all_elements(r)
    mask = brute_unit_mask(r, elems)
    nonunits = {tuple(map(int, x)) for x in elems[~mask]}
    assert span_set(r.maximal_ideal().basis, r) == nonunits


def test_residue_field_sizes():
    assert F5.residue_log_size == 1
    assert F25.residue_log_size == 2
    assert F27.residue_log_size == 3
    assert Z27.residue_log_size == 1
    assert T2_F25.residue_log_size == 2
    field = T2_F25.residue_field()
    assert field.ring.size == 25 and field.ring.k == 1


def test_radical_nilpotency_class():
    assert oracles.radical_nilpotency_class(F5) == 1
    assert oracles.radical_nilpotency_class(Z25) == 2
    assert oracles.radical_nilpotency_class(T3) == 3
    assert oracles.radical_nilpotency_class(Z27) == 3
    assert oracles.radical_nilpotency_class(Z25Y) == 3  # (5, y)^3 = 0, (5, y)^2 = (5y) != 0


# ---- ideals ---------------------------------------------------------


def test_ideal_t_in_t3_frozen_basis():
    ideal = rings.Ideal(T3, [np.array([0, 1, 0])])
    assert ideal.basis.tolist() == [[0, 1, 0], [0, 0, 1]]
    assert ideal.log_size() == 2


@pytest.mark.parametrize("r", [T3, Z25, Z25Y, F25], ids=lambda r: r.name)
def test_ideal_closure_vs_bruteforce(r):
    import random

    rng = random.Random(hash(r.name) % 10**6)
    for _ in range(3):
        gens = [oracles.random_element(r, rng) for _ in range(rng.randrange(1, 3))]
        ideal = rings.Ideal(r, gens)
        assert span_set(ideal.basis, r) == brute_ideal_elements(r, gens)


def test_ideal_arithmetic():
    t = rings.Ideal(T4, [np.array([0, 1, 0, 0])])
    t2 = rings.Ideal(T4, [np.array([0, 0, 1, 0])])
    t3 = rings.Ideal(T4, [np.array([0, 0, 0, 1])])
    assert t.mul_ideal(t) == t2
    assert t.mul_ideal(t).mul_ideal(t) == t3
    assert t2.add_ideal(t3) == t2
    assert t.contains_ideal(t2) and not t2.contains_ideal(t)
    assert rings.Ideal(T4, [T4.one]).is_unit_ideal()
    assert t3.mul_ideal(t).is_zero()


@pytest.mark.parametrize("r", [T4, Z25Y, F25], ids=lambda r: r.name)
def test_annihilator_vs_bruteforce(r):
    import random

    rng = random.Random(len(r.name))
    for _ in range(2):
        ideal = rings.Ideal(r, [oracles.random_element(r, rng)])
        ann = ideal.annihilator()
        brute = {
            tuple(map(int, x))
            for x in oracles.elements(r)
            if not any(r.mul(x, b).any() for b in ideal.basis)
        }
        assert span_set(ann.basis, r) == brute


def test_annihilator_edges():
    zero = rings.Ideal(T3, np.zeros((0, 3), dtype=np.int64))
    assert zero.annihilator().is_unit_ideal()
    t2 = rings.Ideal(T4, [np.array([0, 0, 1, 0])])
    assert t2.annihilator() == t2


# ---- ring maps ------------------------------------------------------


def test_ring_map_reduction_chain():
    red32 = rings.RingMap(T3, T2, np.array([[1, 0], [0, 1], [0, 0]]), name="r32")
    red32.check_hom()
    assert red32.is_surjective() and not red32.is_injective()
    assert red32.kernel_ideal().basis.tolist() == [[0, 0, 1]]

    red43 = rings.RingMap(T4, T3, np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]), name="r43")
    red43.check_hom()
    comp = red43.then(red32)
    comp.check_hom()
    assert comp.kernel_ideal().log_size() == 2

    bad = rings.RingMap(T3, T2, np.array([[1, 0], [1, 1], [0, 0]]))
    with pytest.raises(InvariantViolation):
        bad.check_hom()


def test_ring_map_char_drop():
    red = rings.RingMap(Z25, F5, np.array([[1]]), name="mod5")
    red.check_hom()
    assert red.kernel_ideal().basis.tolist() == [[5]]
    assert red(np.array([7])).tolist() == [2]
    with pytest.raises(InputError):
        rings.RingMap(F5, Z25, np.array([[1]]))


# ---- quotients ------------------------------------------------------


def test_quotient_t3_by_t2():
    ideal = rings.Ideal(T3, [np.array([0, 0, 1])])
    q = rings.quotient_ring(T3, ideal, name="T3/t2")
    assert q.ring.n == 2 and q.ring.char == 5
    assert 5 ** ideal.log_size() * q.ring.size == T3.size
    assert q.proj.kernel_ideal() == ideal
    assert q.ring.is_local and oracles.radical_nilpotency_class(q.ring) == 2


def test_quotient_char_drop():
    q = rings.quotient_ring(Z25, rings.Ideal(Z25, [np.array([5])]))
    assert q.ring.n == 1 and q.ring.k == 1 and q.ring.char == 5
    assert q.proj(np.array([7])).tolist() == [2]


def test_quotient_by_unit_ideal_is_zero_ring():
    q = rings.quotient_ring(T2, rings.Ideal(T2, [T2.one]))
    assert q.ring.is_zero and q.ring.size == 1


def test_quotient_mixed_torsion_raises():
    ideal = rings.Ideal(Z25Y, [np.array([0, 5])])
    with pytest.raises(NonFreeQuotientError):
        rings.quotient_ring(Z25Y, ideal)


def test_quotient_lift_section():
    ideal = rings.Ideal(T4, [np.array([0, 0, 1, 0])])
    q = rings.quotient_ring(T4, ideal)
    for c in oracles.elements(q.ring):
        lift = (c @ q.lift_matrix) % T4.char
        assert np.array_equal(q.proj(lift), c)
        assert ideal.contains(T4.sub(lift, lift))


@given(st.lists(st.lists(st.integers(0, 24), min_size=2, max_size=2), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_quotient_size_law(gens):
    ideal = rings.Ideal(Z25Y, [np.array(g) for g in gens])
    try:
        q = rings.quotient_ring(Z25Y, ideal)
    except NonFreeQuotientError:
        return
    assert 5 ** ideal.log_size() * q.ring.size == Z25Y.size
    assert q.proj.kernel_ideal() == ideal


# ---- fiber products -------------------------------------------------


def test_fiber_product_dual_numbers_over_f5():
    aug = rings.RingMap(T2, F5, np.array([[1], [0]]), name="aug")
    aug.check_hom()
    h, pa, pb = rings.fiber_product(aug, rings.RingMap.identity(F5), name="H")
    assert h.n == 2 and h.size == 25
    # embedded image equals the brute matched-pair set
    embedded = {
        tuple(map(int, (x @ np.hstack([pa.matrix, pb.matrix])) % h.char)) for x in oracles.elements(h)
    }
    brute = {
        (int(a[0]), int(a[1]), int(b[0]))
        for a in oracles.elements(T2)
        for b in oracles.elements(F5)
        if np.array_equal(aug(a), b)
    }
    assert embedded == brute
    assert pa.is_surjective() and pb.is_surjective()


def test_fiber_product_t4_over_t2():
    mat = np.zeros((4, 2), dtype=np.int64)
    mat[0, 0] = mat[1, 1] = 1
    red = rings.RingMap(T4, T2, mat, name="red")
    red.check_hom()
    h, pa, pb = rings.fiber_product(red, red)
    assert h.size == 5**6
    assert h.is_local
    assert rings.embedding_dimension(h) == 2
    # vectorized pair count: sum over c of (#fibre of f over c)^2
    elems = all_elements(T4)
    imgs = (elems @ red.matrix) % 5
    _, counts = np.unique(imgs, axis=0, return_counts=True)
    assert int((counts**2).sum()) == h.size


def test_fiber_product_over_a_non_local_factor_carries_no_residue_map():
    """A x_C (C x D) is A x D, with two local factors: A local and C != 0
    do not make the fibre product local, so no residue map is carried."""
    a, c, d = T2, F5, F25
    b = oracles.product_ring(c, d)
    assert a.is_local and not b.is_local  # A has its residue map, B has none
    f = rings.RingMap(a, c, np.array([[1], [0]]), name="aug")
    g = rings.RingMap(b, c, np.array([[1], [0], [0]]), name="pr_C")
    h, _, _ = rings.fiber_product(f, g)
    assert h.n == a.n + d.n and h._residue_map is None
    assert not h.is_local and oracles.local_factor_count(h) == 2


def test_products_with_a_zero_factor_are_the_other_factor():
    """A x 0 and A x_0 0 are A, and 0 x B and 0 x_0 B are B: each carries
    the residue map of its nonzero factor, and A x_0 B of two nonzero
    factors carries none."""
    z = oracles.zero_ring(5)
    for a, b, carried in [(T2, z, T2), (z, F25, F25)]:
        assert np.array_equal(oracles.product_ring(a, b)._residue_map, carried._residue_map)
    onto_zero = [rings.RingMap(r, z, np.zeros((r.n, 0), dtype=np.int64)) for r in (T2, z, F25)]
    for f, g, carried in [(0, 1, T2), (1, 2, F25)]:
        h, pa, pb = rings.fiber_product(onto_zero[f], onto_zero[g])
        pr = pa if carried is onto_zero[f].src else pb
        assert h.n == carried.n and np.array_equal(h._residue_map, (pr.matrix @ carried._residue_map) % 5)
    h, _, _ = rings.fiber_product(onto_zero[0], onto_zero[2])
    assert h.n == T2.n + F25.n and not h.is_local


def test_fiber_product_of_local_rings_carries_the_residue_map():
    mat = np.zeros((4, 2), dtype=np.int64)
    mat[0, 0] = mat[1, 1] = 1
    red = rings.RingMap(T4, T2, mat, name="red")
    assert T4.is_local
    h, pa, _ = rings.fiber_product(red, red)
    assert np.array_equal(h._residue_map, (pa.matrix @ T4._residue_map) % 5)
    want = oracles.frobenius_local_data(h)
    assert h.is_local and want["factors"] == 1 and h.residue_log_size == want["residue_log"]
    assert np.array_equal(h.radical_rows(), want["radical"])


@pytest.mark.parametrize("p, e, trunc", [(5, 1, 6), (3, 1, 8), (5, 2, 4), (3, 3, 3)])
def test_dvr_model_residue_map_matches_frobenius(p, e, trunc):
    ring = rings.DvrModel(p, e, trunc).ring
    want = oracles.frobenius_local_data(ring)
    assert ring._residue_map.shape == (ring.n, e)
    assert ring.is_local and want["local"] and ring.residue_log_size == want["residue_log"] == e
    assert np.array_equal(ring.radical_rows(), want["radical"])


def _h_level_rings():
    """The h-level rings of the branch and axes towers of the corpus."""
    for p, e, trunc, _, spec in towers._CORPUS_SPECS:
        if spec["kind"] != "plane":
            yield towers._h_level(rings.DvrModel(p, e, trunc), spec).ring


@pytest.mark.parametrize("build", [
    lambda: [rings.zmod_ring(5, 1), rings.zmod_ring(5, 3), rings.field_ring(5, 2), rings.field_ring(3, 3)],
    lambda: [rings.truncated_poly_ring(rings.field_ring(5, 2), 4), rings.truncated_poly_ring(rings.zmod_ring(5, 2), 3),
             rings.truncated_poly_ring(rings.truncated_poly_ring(rings.field_ring(3, 2), 2), 2)],
    lambda: list(_h_level_rings()),
], ids=["zmod-and-fields", "truncated", "h-levels"])
def test_entry_rings_carry_the_frobenius_residue_map(build):
    """Each entry ring carries a residue map whose kernel and residue
    degree are the radical and residue degree that Frobenius finds
    (`rings` module docstring)."""
    built = build()
    for ring in built:
        want = oracles.frobenius_local_data(ring)
        assert want["factors"] == 1 and ring.is_local and ring.residue_log_size == want["residue_log"], ring.name
        assert np.array_equal(ring.radical_rows(), want["radical"]), ring.name
    assert built


def test_fiber_product_requires_surjections():
    incl = rings.RingMap(F5, T2, np.array([[1, 0]]), name="incl")
    incl.check_hom()
    with pytest.raises(InputError):
        rings.fiber_product(incl, rings.RingMap.identity(T2))


# ---- embedding dimension and Gorenstein -----------------------------


def test_embedding_dimension_values():
    assert rings.embedding_dimension(F5) == 0
    assert rings.embedding_dimension(F25) == 0
    assert rings.embedding_dimension(Z25) == 1
    assert rings.embedding_dimension(T3) == 1
    assert rings.embedding_dimension(T2_F25) == 1
    assert rings.embedding_dimension(Z25Y) == 2
    assert rings.embedding_dimension(fat_point_ring()) == 2
    assert rings.embedding_dimension(square_zero_3()) == 3


GORENSTEIN_TABLE = [
    (F5, True),
    (F25, True),
    (Z25, True),
    (Z27, True),
    (T3, True),
    (T2_F25, True),
    (Z25Y, True),
    (bicusp_ring(), True),
    (fat_point_ring(), False),
    (square_zero_3(), False),
]


@pytest.mark.parametrize("r,expected", GORENSTEIN_TABLE, ids=lambda v: getattr(v, "name", str(v)))
def test_gorenstein_frozen_table(r, expected):
    assert rings.gorenstein_test(r) == expected


@pytest.mark.parametrize(
    "r", [Z25, T3, Z25Y, bicusp_ring(), fat_point_ring(), square_zero_3()], ids=lambda r: r.name
)
def test_gorenstein_vs_socle_count(r):
    elems = all_elements(r)
    mask = brute_unit_mask(r, elems)
    soc = brute_socle_size(r, elems, mask)
    nonunit_count = len(elems) - int(mask.sum())
    q_res = r.size // nonunit_count  # |R| / |m| = residue field size
    assert (soc == q_res) == rings.gorenstein_test(r)


# ---- hom enumeration ------------------------------------------------


def test_monogenic_generators_frozen():
    g, minpoly = oracles.monogenic_generator(F25)
    assert g.tolist() == [0, 1] and minpoly == [1, 1, 1]  # x^2 + x + 1
    g, minpoly = oracles.monogenic_generator(Z25)
    assert minpoly == [24, 1]
    pr = oracles.product_ring(F5, F5)
    got = oracles.monogenic_generator(pr)
    assert got is not None
    g, minpoly = got
    assert minpoly == [0, 4, 1]  # x^2 - x


def test_all_ring_maps_counts():
    assert len(oracles.all_ring_maps(F25, F25)) == 2
    assert len(oracles.all_ring_maps(F25, F5)) == 0
    assert len(oracles.all_ring_maps(T2, T2)) == 5
    assert len(oracles.all_ring_maps(T2, F5)) == 1
    assert len(oracles.all_ring_maps(T3, T2)) == 5
    assert len(oracles.all_ring_maps(F5, F5)) == 1
    assert len(oracles.all_ring_maps(Z25, F5)) == 1


def test_all_ring_maps_are_distinct_homs():
    maps = oracles.all_ring_maps(T3, T3)
    seen = set()
    for m in maps:
        m.check_hom()
        seen.add(m.matrix.tobytes())
    assert len(seen) == len(maps)
    # t -> a t + b t^2 with no constraint beyond t^3 = 0: 25 maps
    assert len(maps) == 25


# ---- DVR model ------------------------------------------------------


def test_dvr_model_basics():
    d = rings.DvrModel(trunc=6)
    assert d.q == 5 and d.ring.n == 6
    assert np.flatnonzero(d.t(3)).tolist() == [3]
    assert d.t_ideal(2).log_size() == 4
    assert d.quotient_mod_t(2).ring.n == 2
    assert rings.gorenstein_test(d.ring)


def test_dvr_model_extension_field():
    d = rings.DvrModel(p=5, e=2, trunc=4)
    assert d.q == 25 and d.ring.n == 8
    assert np.flatnonzero(d.t(1)).tolist() == [2]
    assert d.t_ideal(1).log_size() == 6
    assert d.residue.size == 25


def test_dvr_model_guards():
    with pytest.raises(InputError):
        rings.DvrModel(trunc=1)


@pytest.mark.parametrize("h_spec", [{"kind": "plane"}, {"kind": "branch", "m": 2}])
def test_fiber_product_table_matches_per_pair_solves(h_spec):
    # plane-F5-r1 and branch-F5-m2-r1 of the tower corpus
    from exalg import towers

    t = towers.build_eisenstein_tower(rings.DvrModel(5, 1, 16), 1, h_spec)
    lam_quot, aug, _ = oracles.tower_augmentation(t)
    a_ring, b_ring = aug.src, lam_quot.proj.src
    ring, pr1, pr2 = rings.fiber_product(aug, lam_quot.proj)
    assert (ring.p, ring.k) == (t.H.p, t.H.k)
    assert np.array_equal(ring.table, t.H.table) and np.array_equal(ring.one, t.H.one)
    basis, na = np.hstack([pr1.matrix, pr2.matrix]), a_ring.n
    span = linalg.FactoredSpan.factor(basis, 5, 1)
    for i in range(ring.n):
        for j in range(i, ring.n):
            x, y = basis[i], basis[j]
            prod = np.concatenate([a_ring.mul(x[:na], y[:na]), b_ring.mul(x[na:], y[na:])])
            coeff, ok = span.solve(prod)
            assert ok and np.array_equal(ring.table[i, j], coeff) and np.array_equal(ring.table[j, i], coeff)
    one, ok = span.solve(np.concatenate([a_ring.one, b_ring.one]))
    assert ok and np.array_equal(ring.one, one)


# ---- batched contractions against per-element products ---------------

PRODUCT_RING = oracles.product_ring(F5, F25, name="F5xF25")
BATCH_RINGS = [T3, Z25, F25, F27, Z25Y, PRODUCT_RING]


@pytest.mark.parametrize("r", BATCH_RINGS, ids=lambda r: r.name)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_mul_ideal_matches_per_pair_mul(r, data):
    def ideal():
        rows = data.draw(
            st.lists(st.lists(st.integers(0, r.char - 1), min_size=r.n, max_size=r.n), max_size=3)
        )
        return rings.Ideal(r, np.array(rows, dtype=np.int64).reshape(-1, r.n))

    a, b = ideal(), ideal()
    got = r.mul_outer(a.basis, b.basis).reshape(-1, r.n)
    want = np.array([r.mul(x, y) for x in a.basis for y in b.basis], dtype=np.int64).reshape(-1, r.n)
    assert np.array_equal(got, want)
    assert np.array_equal(a.mul_ideal(b).basis, linalg.howell_form(want, r.p, r.k, ncols=r.n))


T21 = rings.truncated_poly_ring(Z25, 21, name="Z25[t]/t^21")


@given(
    i=st.integers(1, 20), j=st.integers(1, 20), l=st.integers(0, 20), delta=st.integers(1, 24)
)
@settings(max_examples=20, deadline=None)
def test_sampled_associativity_catches_one_corrupt_constant(i, j, l, delta):
    table = T21.table.copy()
    table[i, j, l] = table[j, i, l] = (table[i, j, l] + delta) % 25  # still commutative
    bad = rings.FiniteRing(5, 2, table, T21.one)
    try:
        bad.check_ring()
    except InvariantViolation as e:
        assert str(e) == "associativity fails"
    else:
        return  # this corruption happens to keep the ring associative
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_ASSOC_TERMS", 0)
        with pytest.raises(InvariantViolation, match="associativity fails on sample"):
            bad.check_ring()


# ---- exactness guard ------------------------------------------------


def _odd_prime_power(m):
    """(p, k) with m = p^k for an odd prime p, else None."""
    if m < 3 or m % 2 == 0:
        return None
    p = 3
    while p * p <= m and m % p:
        p += 2
    if m % p:
        p = m
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_exactness_guard_boundary(n):
    lo, hi = 0, 2**22  # n^2 d^3 < 2^63 holds at d = lo and fails at d = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if n * n * mid**3 < 2**63 else (lo, mid)
    top = lo + 1  # the largest modulus m with n^2 (m - 1)^3 < 2^63
    accepted = next(_odd_prime_power(m) for m in range(top, 2, -1) if _odd_prime_power(m))
    rejected = next(_odd_prime_power(m) for m in itertools.count(top + 1) if _odd_prime_power(m))
    p, k = accepted
    m = p**k
    table = np.full((n, n, n), m - 1, dtype=np.int64)
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    r = rings.FiniteRing(p, k, table, one)
    x = np.full(n, m - 1, dtype=np.int64)
    want = [n * n * (m - 1) ** 3 % m] * n  # the Python-int product
    assert r.mul(x, x).tolist() == want
    assert r.mul_outer(x[None], x[None])[0, 0].tolist() == want
    with pytest.raises(InputError, match="exact int64"):
        rings.FiniteRing(rejected[0], rejected[1], table, one)


@pytest.mark.parametrize("p,k", [(5, 20), (1000003, 2)])
def test_exactness_guard_rejects_large_moduli(p, k):
    with pytest.raises(InputError, match="exact int64"):
        rings.zmod_ring(p, k)


# ---- source rule: structure tables meet a three-operand einsum only in mul --


def _three_operand_table_einsums():
    """(file, enclosing class.function) of each `np.einsum` call in the
    package with three operands, one of them a structure table."""
    found = set()

    def walk(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (
                isinstance(child, ast.Call)
                and ast.unparse(child.func) == "np.einsum"
                and len(child.args) == 4
                and any("table" in ast.unparse(arg) for arg in child.args[1:])
            ):
                found.add((path.name, inner))
            walk(child, inner, path)

    for path in sorted(pathlib.Path(rings.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path)
    return found


def test_three_operand_table_einsum_only_in_finite_ring_mul():
    """Any other product over a structure table goes through two-operand
    contractions (`mul_matrix`, `mul_outer`): n^3 work per element and n^2
    per pair, where the three-operand form does n^3 per pair."""
    assert _three_operand_table_einsums() == {("rings.py", "FiniteRing.mul")}


# ---- the sparse product kernel against the dense formula -------------


def _ragged_table(p, n, seed):
    """A table of random constants in a few cells only: most output cells,
    and every output coordinate l >= n // 2, have no constant at all."""
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n, n), dtype=np.int64)
    for _ in range(3 * n):
        i, j, l = rng.integers(0, n), rng.integers(0, n), rng.integers(0, n // 2)
        table[i, j, l] = rng.integers(1, p)
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    return rings.FiniteRing(p, 1, table, one, name=f"ragged{n}")


# both sides of the dimension rule (dense below rings._SPARSE_DIM)
KERNEL_RINGS = [
    T3,
    rings.truncated_poly_ring(F5, 14, name="F5[t]/t^14"),
    rings.truncated_poly_ring(Z25, 12, name="Z25[t]/t^12"),
    PRODUCT_RING,
    oracles.product_ring(rings.truncated_poly_ring(F5, 9), T4, name="F5[t]/t^9xT4"),
    towers.build_eisenstein_tower(rings.DvrModel(5, 1, 8), 2, {"kind": "plane"}).H,
    algebras.matrix_algebra(F5, 2),
    algebras.matrix_algebra(T3, 2),
    oracles.zero_ring(5),
    _ragged_table(5, 4, 0),
    _ragged_table(7, 13, 1),
]


def _stack(r, shape):
    return arrays(np.int64, tuple(shape) + (r.n,), elements=st.integers(0, r.char - 1))


@pytest.mark.parametrize("r", KERNEL_RINGS, ids=lambda r: f"{r.name}-n{r.n}")
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sparse_kernel_matches_dense_formula(r, data):
    lead = data.draw(st.lists(st.integers(0, 3), max_size=3))
    x = data.draw(_stack(r, lead))
    assert np.array_equal(r.mul_matrix(x), oracles.dense_mul_matrix(r, x))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_GATHER_CELLS", 1)  # one row per gathered block
        assert np.array_equal(r.mul_matrix(x), oracles.dense_mul_matrix(r, x))
    g = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(0, 4))
    rows = data.draw(_stack(r, (count, g))).reshape(count, g * r.n)  # rows of R^g
    assert np.array_equal(r.orbit(rows, g), oracles.dense_orbit(r, rows, g))
    by = data.draw(_stack(r, (data.draw(st.integers(0, 4)),)))
    assert np.array_equal(r.orbit(rows, g, by=by), oracles.dense_orbit(r, rows, g, by))
    xs = data.draw(_stack(r, (data.draw(st.integers(0, 4)),)))
    ys = data.draw(_stack(r, (data.draw(st.integers(0, 4)),)))
    want = np.einsum("ai,bj,ijl->abl", xs, ys, r.table) % r.char
    assert np.array_equal(r.mul_outer(xs, ys), want)


def test_kernel_rings_cover_both_sides_of_the_dimension_rule():
    dims = [r.n for r in KERNEL_RINGS]
    assert min(dims) == 0 and any(0 < n < rings._SPARSE_DIM for n in dims)
    assert sum(n >= rings._SPARSE_DIM for n in dims) >= 5
