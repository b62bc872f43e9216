"""The three canonical-form shortcuts against the code they replace.

`linalg.howell_form` splits off the unit singleton rows before the
engine runs, `rings.smith_form` reads a unit-pivot Howell form's Smith
basis off in closed form, and `FiniteRing._check_associativity` sums
over the nonzero structure constants.  Each must give what its reference
in `tests/oracles.py` gives, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_associativity,
    engine_howell_form,
    loop_smith_form,
    sampled_associativity,
)

from exalg import algebras, groups, linalg, rings
from exalg.errors import InvariantViolation
from exalg.rings import _smith_loop


@st.composite
def row_sets(draw, max_cols=14):
    """(p, k, ncols, rows): zero rows, unit and non-unit singletons, sparse
    and dense rows, with entries outside [0, p^k) as well."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.integers(1, 3))
    m = p**k
    nc = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        row = [0] * nc
        kind = draw(st.sampled_from(["zero", "unit", "unit", "nonunit", "sparse", "dense"]))
        if kind in ("unit", "nonunit"):
            unit = draw(st.integers(1, m - 1).filter(lambda x: x % p))
            v = 0 if kind == "unit" else draw(st.integers(1, k))
            row[draw(st.integers(0, nc - 1))] = unit * p**v + m * draw(st.integers(-1, 1))
        elif kind == "sparse":
            for c in draw(st.lists(st.integers(0, nc - 1), min_size=2, max_size=3)):
                row[c] = draw(st.integers(0, m - 1))
        elif kind == "dense":
            row = draw(st.lists(st.integers(-m, 2 * m), min_size=nc, max_size=nc))
        rows.append(row)
    return p, k, nc, np.array(rows, dtype=np.int64).reshape(len(rows), nc)


def same_arrays(xs, ys) -> bool:
    return all(x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(xs, ys))


# ---- howell_form ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_howell_form_matches_the_engine_alone(case):
    p, k, nc, rows = case
    assert same_arrays([linalg.howell_form(rows, p, k, ncols=nc)], [engine_howell_form(rows, p, k, ncols=nc)])


def test_howell_split_covers_its_branches():
    """Seeded inputs past the split's size: all-singleton, none, and mixed."""
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(600):
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(1, 4))
        m = p**k
        nr, nc = int(rng.integers(8, 30)), int(rng.integers(8, 16))
        rows = rng.integers(0, m, size=(nr, nc))
        rows[rng.random((nr, nc)) < rng.random()] = 0
        singles = rng.random(nr) < rng.random()
        rows[singles] = 0
        rows[singles, rng.integers(0, nc, size=singles.sum())] = rng.integers(1, m, size=singles.sum())
        units = ((rows != 0).sum(axis=1) == 1) & (rows.max(axis=1) % p != 0)
        seen.add((bool(units.any()), bool(units.all())))
        assert same_arrays([linalg.howell_form(rows, p, k, ncols=nc)], [engine_howell_form(rows, p, k, ncols=nc)])
    assert seen == {(False, False), (True, False), (True, True)}


# ---- smith_form -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(row_sets(max_cols=10))
def test_smith_form_matches_the_loop(case):
    p, k, nc, rows = case
    assert same_arrays(rings.smith_form(rows, p, k, nc), loop_smith_form(rows, p, k, nc))
    # on its own Howell form, which is what its callers passed before, the
    # loop ran directly
    h = engine_howell_form(rows, p, k, ncols=nc)
    assert same_arrays(rings.smith_form(h, p, k, nc), _smith_loop(h, p, k, nc))


def test_smith_closed_form_covers_unit_and_nonunit_pivots():
    rng = np.random.default_rng(7)
    closed = 0
    for _ in range(400):
        p, k = int(rng.choice([3, 5, 7])), int(rng.integers(1, 4))
        nr, nc = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        rows = rng.integers(0, p**k, size=(nr, nc))
        rows[rng.random((nr, nc)) < 0.4] = 0
        h = linalg.howell_form(rows, p, k, ncols=nc)
        closed += bool(h.size) and all(int(r[r != 0][0]) == 1 for r in h)
        assert same_arrays(rings.smith_form(rows, p, k, nc), loop_smith_form(rows, p, k, nc))
    assert 50 < closed < 350


# ---- associativity ----------------------------------------------------


Z9 = rings.zmod_ring(3, 2)
CHECKED = [
    rings.truncated_poly_ring(Z9, 12),  # commutative, at the sparse dimension
    rings.truncated_poly_ring(rings.field_ring(5, 2), 7),  # commutative, dimension 14
    rings.truncated_poly_ring(rings.zmod_ring(7, 1), 21),  # past the old full limit of 20
    algebras.matrix_algebra(rings.zmod_ring(5, 1), 4),  # non-commutative, dimension 16
    algebras.group_algebra(rings.truncated_poly_ring(rings.zmod_ring(5, 1), 2), groups.symmetric_3()),  # 12
    algebras.matrix_algebra(rings.zmod_ring(3, 1), 5),  # non-commutative, past the old limit of 24
]


def outcome(r):
    try:
        r._check_associativity()
    except InvariantViolation as e:
        return str(e)


@pytest.mark.parametrize("r", CHECKED, ids=lambda r: r.name)
def test_associativity_accepts_the_stock_tables(r):
    assert r.n >= rings._SPARSE_DIM and dense_associativity(r)
    assert outcome(r) is None


@settings(max_examples=120, deadline=None)
@given(which=st.integers(0, len(CHECKED) - 1), idx=st.tuples(*[st.integers(0, 63)] * 3), delta=st.integers(1, 48))
def test_associativity_over_the_constants_matches_the_dense_check(which, idx, delta):
    base = CHECKED[which]
    i, j, l = (x % base.n for x in idx)
    table = base.table.copy()
    table[i, j, l] = (table[i, j, l] + delta) % base.char
    bad = rings.FiniteRing(base.p, base.k, table, base.one)
    full = outcome(bad)
    assert full == (None if dense_associativity(bad) else "associativity fails")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_ASSOC_TERMS", 0)
        sampled = outcome(bad)
    assert sampled == (None if sampled_associativity(bad) else "associativity fails on sample")
    # every corruption the sample rejects, the full check rejects
    assert sampled is None or full is not None


def test_rings_past_the_old_limits_get_the_full_check():
    """Dimensions 21 and 25 were sampled; each now joins every basis triple."""
    for base in (CHECKED[2], CHECKED[5]):
        assert base.n > 20
        table = base.table.copy()
        table[base.n - 1, 1, base.n - 1] = 1
        bad = rings.FiniteRing(base.p, base.k, table, base.one)
        assert outcome(bad) == "associativity fails" and not dense_associativity(bad)
