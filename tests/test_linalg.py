"""Howell form over Z/p^k against brute-force span enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exalg import linalg


def span_bruteforce(rows, m, ncols=None):
    """All Z/m-combinations of the rows, as a frozenset of tuples."""
    rows = [tuple(int(x) % m for x in r) for r in rows]
    if not rows:
        return frozenset({tuple([0] * ncols)}) if ncols else frozenset()
    n = len(rows[0])
    seen = {tuple([0] * n)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % m for a, b in zip(cur, r))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def random_row_ops(rng, rows, m, p):
    """A different generating set for the same span."""
    rows = [list(r) for r in rows]
    units = [u for u in range(1, m) if u % p != 0]
    for _ in range(8):
        op = rng.randrange(3)
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows))
        if op == 0 and i != j:
            c = rng.randrange(m)
            rows[i] = [(a + c * b) % m for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            u = rng.choice(units)
            rows[i] = [(u * a) % m for a in rows[i]]
        else:
            rows.append([(a + b) % m for a, b in zip(rows[i], rows[j])])
    return rows


MODULI = [(5, 1), (5, 2), (3, 3), (7, 1)]


@pytest.mark.parametrize("p,k", MODULI)
def test_howell_span_preserved_and_canonical(p, k):
    import random

    rng = random.Random(1000 * p + k)
    m = p**k
    for trial in range(25):
        nr = rng.randrange(1, 4)
        nc = rng.randrange(1, 4)
        mat = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
        h = linalg.howell_form(mat, p, k)
        expect = span_bruteforce(mat, m, nc)
        got = span_bruteforce(h, m, nc)
        assert got == expect
        # canonical: any other generating set gives the identical matrix
        alt = random_row_ops(rng, mat, m, p)
        h2 = linalg.howell_form(alt, p, k)
        assert linalg.span_equal(h, h2), (mat, alt, h, h2)
        # idempotent
        assert linalg.span_equal(linalg.howell_form(h, p, k), h)
        # size bookkeeping
        assert p ** linalg.span_log_size(h, p, k) == len(expect)


@pytest.mark.parametrize("p,k", MODULI)
def test_membership_and_reduction(p, k):
    import random

    rng = random.Random(77 * p + k)
    m = p**k
    for trial in range(20):
        nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
        mat = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
        h = linalg.howell_form(mat, p, k)
        sp = span_bruteforce(mat, m)
        for _ in range(10):
            v = [rng.randrange(m) for _ in range(nc)]
            assert linalg.span_contains(h, v, p, k) == (tuple(v) in sp)
        # canonical representatives: two vectors in the same coset reduce equally
        v = [rng.randrange(m) for _ in range(nc)]
        w = rng.choice(sorted(sp))
        v2 = [(a + b) % m for a, b in zip(v, w)]
        r1, _ = linalg.reduce_by_howell(h, v, p, k)
        r2, _ = linalg.reduce_by_howell(h, v2, p, k)
        assert np.array_equal(r1, r2)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (3, 2)])
def test_kernel_exact(p, k):
    import random

    rng = random.Random(13 * p + k)
    m = p**k
    for trial in range(15):
        nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
        mat = np.array(
            [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)], dtype=np.int64
        )
        kern = linalg.kernel(mat, p, k)
        # every reported row annihilates
        if kern.shape[0]:
            assert not ((kern @ mat) % m).any()
        # brute kernel equals the span of the reported rows
        brute = {
            x
            for x in itertools.product(range(m), repeat=nr)
            if not ((np.array(x) @ mat) % m).any()
        }
        got = span_bruteforce(kern, m) if kern.shape[0] else {tuple([0] * nr)}
        assert set(got) == brute


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2)])
def test_solve_left(p, k):
    import random

    rng = random.Random(5 * p + k)
    m = p**k
    for trial in range(30):
        nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
        mat = np.array(
            [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)], dtype=np.int64
        )
        sp = span_bruteforce(mat, m)
        rhs = [rng.randrange(m) for _ in range(nc)]
        x = linalg.solve_left(mat, rhs, p, k)
        if tuple(rhs) in sp:
            assert x is not None
            assert np.array_equal((x @ mat) % m, np.array(rhs) % m)
        else:
            assert x is None


def test_kernel_mod_char_drop():
    # kernel of (Z/25)^2 -> (Z/5)^1, (a, b) |-> a + 2b mod 5
    mat = np.array([[1], [2]], dtype=np.int64)
    kern = linalg.kernel_mod(mat, 5, 2, 1)
    got = span_bruteforce(kern, 25)
    brute = {
        (a, b) for a in range(25) for b in range(25) if (a + 2 * b) % 5 == 0
    }
    assert set(got) == brute


def test_modulus_guard():
    for bad in [(2, 1), (4, 1), (9, 1), (5, 0), (1, 1)]:
        with pytest.raises(ValueError):
            linalg.check_modulus(*bad)
    linalg.check_modulus(5, 2)
    linalg.check_modulus(3, 1)


def test_modulus_guard_refuses_oversized_moduli_before_the_trial_division():
    """A modulus past exact int64 arithmetic is refused on its size, before
    a trial division that grows with sqrt(p) or a power p^k too large to form."""
    for p, k in [(1000000000039, 1), (5, 10**30), (3, 64), (2097169, 1)]:
        with pytest.raises(ValueError, match="past exact int64 arithmetic"):
            linalg.check_modulus(p, k)
    linalg.check_modulus(2097143, 1)  # the largest prime with (p - 1)^3 < 2^63


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5**2 - 1),
    st.lists(st.lists(st.integers(0, 24), min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_howell_structure_properties(scale, rows):
    p, k = 5, 2
    h = linalg.howell_form(rows, p, k)
    info = linalg.pivot_info(h, p, k)
    cols = sorted(info)
    # pivots at strictly increasing columns, one per row
    assert len(cols) == h.shape[0]
    for row, c in zip(h, cols):
        assert int(row[c]) == p ** info[c]
        assert not row[:c].any()
    # entries above a pivot are reduced mod the pivot
    for i, c in enumerate(cols):
        piv = p ** info[c]
        assert all(int(h[j, c]) < piv for j in range(i))
    # scaling a member stays a member
    if h.shape[0]:
        v = (scale * h[0]) % 25
        assert linalg.span_contains(h, v, p, k)


# ---- the factored span against per-vector references -----------------


def _reduce_reference(h, vec, p, k):
    """One vector reduced row by row against a Howell-form matrix."""
    m = p**k
    v = np.asarray(vec, dtype=np.int64).copy() % m
    coeffs = np.zeros(h.shape[0], dtype=np.int64)
    for i, row in enumerate(h):
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        q = int(v[c]) // int(row[c])
        if q:
            v = (v - q * row) % m
            coeffs[i] = q % m
    return v, coeffs


def _solve_reference(mat, rhs, p, k):
    """One right-hand side, with a factorization of its own."""
    h, u, done = linalg._engine(np.asarray(mat, dtype=np.int64), p, k, with_transform=True)
    res, coeffs = _reduce_reference(h[:done], rhs, p, k)
    return None if res.any() else (coeffs @ u[:done]) % p**k


@st.composite
def _span_and_batch(draw):
    """Rows over Z/p^k (some scaled by p^j, so spans carry torsion) and a
    batch of right-hand sides, half of them in the span."""
    p, k = draw(st.sampled_from([3, 5])), draw(st.integers(1, 3))
    m = p**k
    nc = draw(st.integers(1, 3 if m**3 <= 20000 else 2))
    nr = draw(st.integers(1, 4))
    entry = st.integers(0, m - 1)
    rows = [
        [p ** draw(st.integers(0, k - 1)) * draw(entry) % m for _ in range(nc)]
        for _ in range(nr)
    ]
    members = [
        (np.array([draw(entry) for _ in range(nr)]) @ np.array(rows)) % m
        for _ in range(draw(st.integers(0, 3)))
    ]
    others = [[draw(entry) for _ in range(nc)] for _ in range(draw(st.integers(1, 4)))]
    return p, k, np.array(rows, dtype=np.int64), np.array(members + others, dtype=np.int64).reshape(-1, nc)


@settings(max_examples=80, deadline=None)
@given(_span_and_batch())
def test_factored_span_batches_match_per_vector_references(case):
    p, k, mat, batch = case
    m = p**k
    span = linalg.FactoredSpan.factor(mat, p, k)
    assert np.array_equal(span.h, linalg.howell_form(mat, p, k))
    assert not ((span.kernel @ mat) % m).any()
    brute = span_bruteforce(mat, m)
    res, coeffs = span.reduce(batch)
    inside = span.contains(batch)
    x, ok = span.solve(batch)
    assert np.array_equal(ok, inside)
    for i, v in enumerate(batch):
        ref_res, ref_coeffs = _reduce_reference(span.h, v, p, k)
        assert np.array_equal(res[i], ref_res) and np.array_equal(coeffs[i], ref_coeffs)
        one_res, one_coeffs = span.reduce(v)
        assert np.array_equal(one_res, ref_res) and np.array_equal(one_coeffs, ref_coeffs)
        assert bool(inside[i]) == (tuple(int(c) for c in v) in brute)
        ref_x = _solve_reference(mat, v, p, k)
        assert (ref_x is not None) == bool(ok[i])
        if ok[i]:
            assert np.array_equal(x[i], ref_x)
            assert np.array_equal((x[i] @ mat) % m, v % m)
        # the one-vector forms give the same answers
        one = linalg.solve_left(mat, v, p, k)
        assert (one is None) if ref_x is None else np.array_equal(one, ref_x)
        assert linalg.span_contains(span.h, v, p, k) == bool(inside[i])
    # a wrapped Howell form reduces as the factored span does, in any batch shape
    wrapped = linalg.FactoredSpan(span.h, p, k)
    res2, coeffs2 = wrapped.reduce(batch.reshape(1, -1, batch.shape[1]))
    assert np.array_equal(res2[0], res) and np.array_equal(coeffs2[0], coeffs)


def test_factored_span_of_no_rows():
    span = linalg.FactoredSpan.factor(np.zeros((0, 3), dtype=np.int64), 5, 1)
    assert span.h.shape == (0, 3) and span.kernel.shape[0] == 0
    x, ok = span.solve(np.array([[0, 0, 0], [1, 0, 0]]))
    assert ok.tolist() == [True, False] and x.shape == (2, 0)
    assert linalg.solve_left(np.zeros((0, 0), dtype=np.int64), [0, 0], 5, 1).shape == (0,)


# ---- tall inputs: the engine sheds zero rows without changing the form --


@st.composite
def _tall_rows(draw):
    """(p, k, rows): more rows than columns, drawn from a few sparse
    generators (some scaled by p^j), so rows repeat and many are zero.  The shapes
    include rows = cols + 1, an all-zero input and one nonzero row among
    zeros."""
    p, k = draw(st.sampled_from([3, 5])), draw(st.integers(1, 3))
    m = p**k
    nc = draw(st.integers(1, 5))
    entry = st.integers(0, m - 1)
    # sparse generators, so that rows zero in one column can be nonzero further on
    sparse = st.one_of(st.just(0), entry)
    gens = [
        [p ** draw(st.integers(0, k - 1)) * draw(sparse) % m for _ in range(nc)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    shape = draw(st.sampled_from(["mixed", "one-over", "all-zero", "single"]))
    nr = nc + 1 if shape == "one-over" else draw(st.integers(nc + 1, 4 * nc + 8))
    zero = [0] * nc
    if shape == "all-zero":
        rows = [zero] * nr
    elif shape == "single":
        rows = [zero] * nr
        rows[draw(st.integers(0, nr - 1))] = draw(st.sampled_from(gens))
    else:
        # a generator, a zero row, or a small combination of generators
        pick = st.one_of(
            st.sampled_from(gens),
            st.just(zero),
            st.builds(lambda cs: [sum(c * g[j] for c, g in zip(cs, gens)) % m for j in range(nc)],
                      st.lists(entry, min_size=len(gens), max_size=len(gens))),
        )
        rows = [draw(pick) for _ in range(nr)]
    return p, k, np.array(rows, dtype=np.int64).reshape(nr, nc)


@settings(max_examples=200, deadline=None)
@given(_tall_rows())
@example((5, 1, np.zeros((4, 3), dtype=np.int64)))
@example((3, 2, np.array([[0, 0], [0, 3], [0, 0]])))
# elimination at column 0 zeroes column 1 of every row below, and the third
# column of one of them is all that is left of it
@example((5, 1, np.array([[1, 0, 0], [1, 0, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0]])))
def test_howell_form_of_tall_inputs_matches_the_transform_path(case):
    """A tall input sheds its zero rows on the way; the transform path keeps
    every row, and both must give the same Howell form."""
    p, k, rows = case
    m, nc = p**k, rows.shape[1]
    h = linalg.howell_form(rows, p, k)
    h_kept, u, _ = linalg.howell_with_transform(rows, p, k)
    assert h.shape == h_kept.shape and np.array_equal(h, h_kept)
    assert np.array_equal((u @ rows) % m, h)
    if m**nc <= 729:
        assert span_bruteforce(h, m, nc) == span_bruteforce(rows, m, nc)


# ---- the transform as the right block of [rows | I] ------------------


def _two_block_engine(mat, p, k, with_transform):
    """Reference: the Howell engine that updates the transform U in
    parallel with the rows, one branch per row operation."""
    m = p**k
    a = np.asarray(mat, dtype=np.int64) % m
    nr, nc = a.shape
    u = np.eye(nr, dtype=np.int64) % m if with_transform else None
    shed = not with_transform and nr > nc
    if shed:
        a = a[a.any(axis=1)]
    done = 0
    for c in range(nc):
        col = a[done:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        v, least = 0, nz
        if k > 1:
            vals = col[nz]
            for v in range(k):
                least = nz[vals % p ** (v + 1) != 0]
                if least.size:
                    break
        j = int(least[0]) + done
        if j != done:
            a[[done, j]] = a[[j, done]]
            if with_transform:
                u[[done, j]] = u[[j, done]]
        piv = p**v
        unit = int(a[done, c]) // piv
        if unit != 1:
            ui = pow(unit, -1, m)
            a[done] = (a[done] * ui) % m
            if with_transform:
                u[done] = (u[done] * ui) % m
        rel = j - done
        rows = (nz[1:] if nz[0] in (0, rel) else nz[nz != rel]) + done
        if rows.size:
            mult = a[rows, c] // piv
            a[rows] = (a[rows] - mult[:, None] * a[done]) % m
            if with_transform:
                u[rows] = (u[rows] - mult[:, None] * u[done]) % m
            if shed and a.shape[0] - done - 1 > nc - c - 1:
                zeroed = rows[~a[rows, c + 1 :].any(axis=1)]
                if zeroed.size:
                    a = np.delete(a, zeroed, axis=0)
        if done:
            rows = np.flatnonzero(a[:done, c] // piv)
            if rows.size:
                mult = a[rows, c] // piv
                a[rows] = (a[rows] - mult[:, None] * a[done]) % m
                if with_transform:
                    u[rows] = (u[rows] - mult[:, None] * u[done]) % m
        if v > 0:
            ann = (a[done] * p ** (k - v)) % m
            if ann.any() or with_transform:
                a = np.vstack([a, ann[None, :]])
                if with_transform:
                    u = np.vstack([u, (u[done] * p ** (k - v))[None, :] % m])
        done += 1
    return a, u, done


@settings(max_examples=200, deadline=None)
@given(_tall_rows())
@example((5, 1, np.zeros((4, 3), dtype=np.int64)))
@example((5, 1, np.array([[1, 0, 0], [1, 0, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0]])))
def test_howell_form_of_tall_inputs_matches_the_shedding_reference(case):
    """howell_form sheds zero rows on entry only and clears each column with
    one update; the reference drops the rows elimination zeroes as it goes
    and updates the rows below and above the pivot apart."""
    p, k, rows = case
    h_ref, _, done = _two_block_engine(rows.copy(), p, k, False)
    assert np.array_equal(linalg.howell_form(rows, p, k), h_ref[:done])


@st.composite
def _engine_inputs(draw):
    """(p, k, rows): wide, square and tall matrices over Z/p^k whose rows
    are scaled by powers of p, so that pivots of every valuation, their
    annihilator rows and zero rows all occur."""
    p, k = draw(st.sampled_from([3, 5])), draw(st.integers(1, 4))
    m = p**k
    nr, nc = draw(st.integers(0, 7)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(0, m - 1))
    rows = [
        [p ** draw(st.integers(0, k)) * draw(entry) % m for _ in range(nc)]
        for _ in range(nr)
    ]
    return p, k, np.array(rows, dtype=np.int64).reshape(nr, nc)


@settings(max_examples=400, deadline=None)
@given(_engine_inputs())
# a pivot of valuation 1 whose annihilator row is a pivot again, with a
# zero annihilator of its own
@example((3, 2, np.array([[3, 1]])))
def test_engine_on_rows_and_identity_matches_the_two_block_engine(case):
    """With a transform the engine returns both blocks of the reduced
    [rows | I] exactly as the two-block reference returns a and U, rows
    past `done` included; without one it gives the same Howell form."""
    p, k, rows = case
    a, u, done = linalg._engine(rows.copy(), p, k, with_transform=True)
    a_ref, u_ref, done_ref = _two_block_engine(rows.copy(), p, k, True)
    assert done == done_ref
    assert np.array_equal(a, a_ref) and np.array_equal(u, u_ref)
    h, _, done = linalg._engine(rows.copy(), p, k, with_transform=False)
    h_ref, _, done_ref = _two_block_engine(rows.copy(), p, k, False)
    assert done == done_ref and np.array_equal(h[:done], h_ref[:done])
