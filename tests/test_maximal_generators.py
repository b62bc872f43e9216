"""The generators of the maximal ideal, against the whole basis of m.

`FiniteRing.maximal_generators` keeps the rows of the Howell basis of m
whose pivot is not a pivot of the Howell basis of m^2, and
`modules.maximal_multiples` multiplies by them.  On every ring below the
kept rows must generate m as an ideal, and for an R-submodule M of R^g,
g <= 3, the Howell form of m*M must equal that of the products by every
basis row of m.  The Howell form is canonical, so each comparison is
bit for bit.
"""

import sys
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_one_step_spans import GALOIS_RINGS, draw_rows
from test_rings import bicusp_ring, fat_point_ring, square_zero_3

from exalg import linalg, modules, rings, towers


def _rings():
    out = list(GALOIS_RINGS)
    for p in (3, 5, 7):
        for k in (1, 2):
            zp = rings.zmod_ring(p, k)
            out += [rings.truncated_poly_ring(zp, 3), rings.truncated_poly_ring(rings.truncated_poly_ring(zp, 2), 2)]
    out += [fat_point_ring(), bicusp_ring(), square_zero_3()]
    out += [oracles.square_zero_algebra(rings.DvrModel(p, 1, 4)).ring for p in (3, 5)]
    out += [rings.field_ring(5, 2), rings.zmod_ring(7, 1)]
    for spec in ({"kind": "plane"}, {"kind": "axes", "s": 2}):
        t = towers.build_eisenstein_tower(rings.DvrModel(3, 1, 8), 1, spec)
        out += [t.h, t.H]
    return out


RINGS = _rings()


@pytest.mark.parametrize("r", RINGS, ids=lambda r: f"{r.name}-{r.n}")
def test_generators_generate_the_maximal_ideal(r):
    m, gens = r.maximal_ideal(), r.maximal_generators
    assert gens.dtype == np.int64 and gens.shape[1] == r.n
    assert rings.Ideal(r, gens) == m
    assert all(any(np.array_equal(x, y) for y in m.basis) for x in gens)  # rows of the Howell basis of m
    if r.k == 1:  # over F_p, one row per dimension of m/m^2: none for a field
        assert gens.shape[0] == rings.embedding_dimension(r) * r.residue_log_size


def test_the_rings_cover_the_cases():
    gens = [r.maximal_generators.shape[0] for r in RINGS]
    assert 0 in gens and max(gens) >= 3
    assert any(r.k == 2 and r.residue_log_size == 2 for r in RINGS)
    assert any(r.n >= rings._SPARSE_DIM for r in RINGS)  # the joined products of `mul_outer`


@seed(2323)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_maximal_multiples_span_m_times_the_module(data):
    r = data.draw(st.sampled_from(RINGS))
    g = data.draw(st.integers(1, 3))
    gens = draw_rows(data, r, (0, 3), g * r.n)
    scale = data.draw(st.lists(st.integers(0, 1), min_size=len(gens), max_size=len(gens)))
    rows = r.orbit((gens * r.p ** np.array(scale, dtype=np.int64)[:, None]) % r.char, g)  # an R-submodule
    ours = modules.maximal_multiples(r, rows, g)
    full = r.orbit(rows, g, by=r.maximal_ideal().basis)
    width = g * r.n
    assert np.array_equal(linalg.howell_form(ours, r.p, r.k, ncols=width), linalg.howell_form(full, r.p, r.k, ncols=width))


# ---- work and memory guards on the tower path --------------------------


def test_m_squared_is_formed_once_per_ring(monkeypatch):
    """`maximal_generators` and `embedding_dimension` read one cached m^2 of
    their ring: over build, audit and replay of the corpus towers, `rings`
    forms m*m once per ring.  (`towers.cotangent_length` squares its own
    ideal, which is m on the plane r = 1 towers; that product is not m^2
    read by these two, and is not counted.)"""
    formed, kept = {}, []
    mul_ideal = rings.Ideal.mul_ideal

    def counted(ideal, other):
        r = ideal.ring
        caller = sys._getframe(1).f_globals["__name__"]
        if caller == "exalg.rings" and ideal is other and r.is_local and np.array_equal(ideal.basis, r.radical_rows()):
            kept.append(r)  # alive to the end, so no id is reused
            formed[id(r)] = formed.get(id(r), 0) + 1
        return mul_ideal(ideal, other)

    monkeypatch.setattr(rings.Ideal, "mul_ideal", counted)
    for t in towers.tower_corpus():
        towers.theorem_audit(t)
        towers.fitting_replay(t)
    assert set(formed.values()) == {1} and len(formed) >= len(towers._CORPUS_SPECS)

# Rows `maximal_multiples` returns over build, audit and replay of the
# axes-F3-s4-r1 tower, over its two calls: 3,968 as every row of M times
# every basis row of m, 512 times the generators of m.  Counts repeat
# exactly, so the ceiling is the count itself.
MAXIMAL_MULTIPLE_ROWS = 512


def test_maximal_multiple_rows_of_one_tower(monkeypatch):
    rows = []
    real = towers.maximal_multiples

    def counted(r, x, g):
        out = real(r, x, g)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(towers, "maximal_multiples", counted)
    t = towers.build_eisenstein_tower(rings.DvrModel(3, 1, 8), 1, {"kind": "axes", "s": 4})
    towers.theorem_audit(t)
    towers.fitting_replay(t)
    assert sum(rows) <= MAXIMAL_MULTIPLE_ROWS, rows


# Traced peak of `fitting_replay` on the largest axes tower `axis_algebra`
# admits (F5, trunc 16, h.s = 4: dim h = 64, glued dimension 79): 66.7 MB
# with every basis row of m, 7.1 MB with its generators.
REPLAY_PEAK_MB = 16


def test_replay_memory_of_the_largest_axes_tower():
    t = towers.build_eisenstein_tower(rings.DvrModel(5, 1, 16), 1, {"kind": "axes", "s": 4})
    assert t.h.n == towers.MAX_AXES_DIM and t.H.n == 79
    tracemalloc.start()
    try:
        towers.fitting_replay(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < REPLAY_PEAK_MB * 2**20, peak
