"""The ring products that skip zeros against the dense contractions.

`FiniteRing.mul_outer` (and `orbit` with `by` through it) joins the
nonzero entries of its left operand with the nonzero structure
constants, `RingMap.check_hom` forms f(e_i e_j) from the nonzero
constants of the source, and `fiber_product` applies its Smith matrix
through the nonzero entries.  Each must give what the dense contraction
in `tests/oracles.py` gives, bit for bit, on both sides of the dimension
rule and, for `mul_outer`, of the join bound, with the gathers cut into
blocks of one entry as well as whole.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_fiber_coordinates,
    dense_hom_sides,
    dense_mul_outer,
    dense_orbit,
)

from exalg import algebras, groups, rings, towers
from exalg.errors import InvariantViolation


def _tower_ring(p, trunc, r, spec):
    return towers.build_eisenstein_tower(rings.DvrModel(p, 1, trunc), r, spec).H


# dimension 12, 16 and 29-47, p in {3, 5, 7}, k <= 3, two of them not
# commutative, one below the dimension rule
SPARSE_RINGS = [
    rings.truncated_poly_ring(rings.zmod_ring(5, 3), 12, name="Z125[t]/t^12"),
    algebras.matrix_algebra(rings.truncated_poly_ring(rings.zmod_ring(3, 2), 3), 2),
    rings.truncated_poly_ring(rings.zmod_ring(7, 2), 16, name="Z49[t]/t^16"),
    algebras.group_algebra(rings.truncated_poly_ring(rings.zmod_ring(7, 1), 3), groups.symmetric_3()),
    _tower_ring(3, 16, 3, {"kind": "plane"}),
    rings.truncated_poly_ring(rings.zmod_ring(3, 3), 33, name="Z27[t]/t^33"),
    _tower_ring(7, 10, 1, {"kind": "axes", "s": 3}),
    _tower_ring(5, 16, 1, {"kind": "branch", "m": 2}),
    rings.truncated_poly_ring(rings.zmod_ring(5, 1), 8, name="F5[t]/t^8"),
]


def test_rings_cover_the_dimensions_and_moduli():
    dims = {r.n for r in SPARSE_RINGS}
    assert {12, 16} <= dims and {29, 39, 47} <= dims and min(dims) < rings._SPARSE_DIM
    assert {(r.p, r.k) for r in SPARSE_RINGS} >= {(5, 3), (3, 2), (7, 2), (3, 1), (3, 3), (7, 1), (5, 1)}
    assert sum(not np.array_equal(r.table, r.table.transpose(1, 0, 2)) for r in SPARSE_RINGS) == 2


def _stack(r: rings.FiniteRing, count: int, density: float, seed: int) -> np.ndarray:
    """count elements whose coordinates are nonzero with the given density."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, r.char, size=(count, r.n))
    return values * (rng.random((count, r.n)) < density)


DENSITIES = [0.0, 0.02, 0.1, 0.5, 1.0]


def _cases(data, r):
    draw = data.draw
    xs = _stack(r, draw(st.integers(0, 7)), draw(st.sampled_from(DENSITIES)), draw(st.integers(0, 2**32 - 1)))
    ys = _stack(r, draw(st.integers(0, 7)), draw(st.sampled_from(DENSITIES)), draw(st.integers(0, 2**32 - 1)))
    if xs.shape[0] and draw(st.booleans()):
        xs[draw(st.integers(0, xs.shape[0] - 1))] = 0  # a zero row
    return xs, ys


@pytest.mark.parametrize("r", SPARSE_RINGS, ids=lambda r: f"{r.name}-n{r.n}")
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_mul_outer_and_orbit_match_the_dense_contraction(r, data):
    xs, ys = _cases(data, r)
    want = dense_mul_outer(r, xs, ys)
    g = data.draw(st.integers(1, 3))
    rows = _stack(r, g * data.draw(st.integers(0, 3)), data.draw(st.sampled_from(DENSITIES)), 7)
    rows = rows.reshape(-1, g * r.n)
    want_orbit = dense_orbit(r, rows, g, ys)
    for cells in (rings._GATHER_CELLS, 1):  # whole, and one entry per gathered block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_GATHER_CELLS", cells)
            got = r.mul_outer(xs, ys)
            assert got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(r.orbit(rows, g, by=ys), want_orbit)


@pytest.mark.parametrize("r", SPARSE_RINGS, ids=lambda r: f"{r.name}-n{r.n}")
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_hom_sides_match_the_dense_contraction(r, data):
    density = data.draw(st.sampled_from(DENSITIES))
    f = rings.RingMap(r, r, _stack(r, r.n, density, data.draw(st.integers(0, 2**32 - 1))))
    lhs, rhs = dense_hom_sides(f)
    for cells in (rings._GATHER_CELLS, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_GATHER_CELLS", cells)
            assert np.array_equal(f._image_products(), lhs)
            assert np.array_equal(r.mul_outer(f.matrix, f.matrix), rhs)


@pytest.mark.parametrize("r", SPARSE_RINGS, ids=lambda r: f"{r.name}-n{r.n}")
def test_a_corrupted_map_is_not_multiplicative(r):
    ident = rings.RingMap.identity(r)
    ident.check_hom()
    lhs, rhs = dense_hom_sides(ident)
    assert np.array_equal(lhs, rhs)
    # one entry off, in a row that the unit does not reach, so 1 is still preserved
    x = int(np.flatnonzero(r.one == 0)[-1])
    bad = ident.matrix.copy()
    bad[x, 0] = (bad[x, 0] + 1) % r.char
    f = rings.RingMap(r, r, bad)
    lhs, rhs = dense_hom_sides(f)
    assert not np.array_equal(lhs, rhs)
    with pytest.raises(InvariantViolation, match="map is not multiplicative"):
        f.check_hom()


def test_genuine_maps_between_sparse_rings_pass():
    lam = rings.DvrModel(5, 1, 16)
    t = towers.build_eisenstein_tower(lam, 2, {"kind": "branch", "m": 3})
    for f in (t.pr_h, t.pr_lam, t.emb_H, t.aug, t.hlevel.pi, t.hlevel.emb):
        lhs, rhs = dense_hom_sides(f)
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(f._image_products(), lhs)
        f.check_hom()


@pytest.mark.parametrize("r", SPARSE_RINGS[:-1], ids=lambda r: f"{r.name}-n{r.n}")
def test_inputs_reach_both_sides_of_the_join_bound(r, monkeypatch):
    """A few nonzero coordinates take the join; full rows take the dense
    contraction, as no product of a benchmark pass does."""
    paths = []
    add, mul_matrix = rings._add_products, rings.FiniteRing.mul_matrix
    monkeypatch.setattr(rings, "_add_products", lambda *a: paths.append("join") or add(*a))
    monkeypatch.setattr(rings.FiniteRing, "mul_matrix", lambda self, x: paths.append("dense") or mul_matrix(self, x))
    for density, path in ((0.02, "join"), (1.0, "dense")):
        xs = _stack(r, 6, density, 3)
        paths.clear()
        got = r.mul_outer(xs, xs)
        assert paths == [path] and np.array_equal(got, dense_mul_outer(r, xs, xs))


@given(
    n=st.sampled_from([4, 12, 16, 47]),
    rows=st.integers(0, 40),
    density=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    p=st.sampled_from([3, 5, 7]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fiber_coordinates_match_the_dense_product(n, rows, density, p, k, seed):
    m = p**k
    rng = np.random.default_rng(seed)
    w = rng.integers(1, m, size=(n, n)) * (rng.random((n, n)) < density)
    x = rng.integers(0, m, size=(rows, n))
    want = dense_fiber_coordinates(x, w, m)
    for cells in (rings._GATHER_CELLS, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_GATHER_CELLS", cells)
            assert np.array_equal(rings._apply_sparse(x, w, m), want)


@pytest.mark.parametrize("p, r, spec", [(5, 2, {"kind": "plane"}), (3, 1, {"kind": "axes", "s": 3}), (7, 1, {"kind": "branch", "m": 2})])
def test_fiber_product_is_the_one_with_dense_coordinates(p, r, spec, monkeypatch):
    lam = rings.DvrModel(p, 1, 10)
    fast = towers.build_eisenstein_tower(lam, r, spec)
    monkeypatch.setattr(rings, "_apply_sparse", dense_fiber_coordinates)
    dense = towers.build_eisenstein_tower(lam, r, spec)
    assert fast.H.n >= rings._SPARSE_DIM
    assert (fast.H.p, fast.H.k) == (dense.H.p, dense.H.k)
    assert np.array_equal(fast.H.table, dense.H.table) and np.array_equal(fast.H.one, dense.H.one)
    assert np.array_equal(fast.pr_h.matrix, dense.pr_h.matrix)
    assert np.array_equal(fast.pr_lam.matrix, dense.pr_lam.matrix)
