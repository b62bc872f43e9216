"""The character splitter against a copy of its enumerating predecessor.

`psrep.residual_split` and `psrep.split_as_characters` share one stacked
root search (`_quadratic_roots`) and one stacked candidate check
(chi (t - chi) = d).  The reference below is the splitter they replaced,
kept here verbatim in behaviour: square roots of the discriminant by
enumerating the field, roots at each generator by a loop over the whole
ring, and a candidate check that inverts chi element by element.  Both
must agree on the root sets, the characters, `pairs_found`, `case`,
`reason`, and on the type and message of anything raised.
"""

import itertools

import numpy as np
import oracles
import pytest
from test_gma import T2, d4_irr_psrep, d5_t2_psrep, s3_irr_psrep
from test_ordinary_decisions import _counter, _s3_f7, decision_units

from exalg import gma, groups, ordinary, psrep, rings, scenarios
from exalg.errors import BudgetExceeded, InputError, InvariantViolation

ERRORS = (InputError, BudgetExceeded, InvariantViolation)

# ---- the reference splitter ------------------------------------------


def ref_field_sqrts(f, x):
    if f.size > 2500:
        raise BudgetExceeded("square-root search field too large")
    return [y for y in oracles.elements(f) if np.array_equal(f.mul(y, y), x)]


def ref_pointwise_roots(psr, g):
    f = psr.ring
    disc = f.sub(f.mul(psr.t[g], psr.t[g]), f.smul(4, psr.d[g]))
    return [(pow(2, -1, f.char) * (psr.t[g] + s)) % f.char for s in ref_field_sqrts(f, disc)]


def ref_generator_roots(psr, g, budget):
    r = psr.ring
    return [
        x
        for x in oracles.elements(r, limit=budget)
        if not r.add(r.sub(r.mul(x, x), r.mul(psr.t[g], x)), psr.d[g]).any()
    ]


def ref_character_split(psr, gens, per_gen):
    grp, r = psr.group, psr.ring
    found = set()
    for values in itertools.product(*per_gen):
        chi = psrep._multiplicative_fill(grp, gens, values, r.one.copy(), r.mul)
        if chi is None or not all(r.is_unit(chi[g]) for g in grp.elements()):
            continue
        chi2 = {g: r.mul(psr.d[g], r.inv(chi[g])) for g in grp.elements()}
        if all(np.array_equal(r.add(chi[g], chi2[g]), psr.t[g]) for g in grp.elements()):
            keys = [tuple(int(c) for g in grp.elements() for c in x[g]) for x in (chi, chi2)]
            found.add((min(keys), max(keys)))
    if not found:
        return None, 0
    n, chars = r.n, []
    for key in min(found):
        vals = {g: np.array(key[g * n : (g + 1) * n], dtype=np.int64) for g in grp.elements()}
        chi = groups.GroupChar(grp, r, vals, name="chi")
        chi.check()
        chars.append(chi)
    return tuple(chars), len(found)


def ref_residual_split(psr):
    grp, f = psr.group, psr.ring
    if f.k != 1 or not f.is_local or not f.maximal_ideal().is_zero():
        raise InputError("residual splitting expects coefficients in a field")
    psr.check()
    roots = []
    for g in grp.elements():
        found = ref_pointwise_roots(psr, g)
        if not found:
            return {
                "split": False,
                "unsupported": True,
                "reason": f"irreducible characteristic polynomial at element {g}",
                "chars": None,
                "case": "irreducible",
            }
        roots.append(found)
    gens = psrep._min_generating_set(grp)
    chars, _ = ref_character_split(psr, gens, [roots[g] for g in gens])
    if chars is None:
        return {
            "split": False,
            "unsupported": True,
            "reason": "splits pointwise but admits no multiplicative assignment",
            "chars": None,
            "case": "matrix",
        }
    case = "coincident" if psrep._chars_equal(*chars) else "split"
    return {"split": True, "unsupported": False, "reason": "", "chars": chars, "case": case}


def ref_split_as_characters(psr, budget=200000):
    grp, r = psr.group, psr.ring
    if r.is_zero:
        return {"split": True, "trivial": True, "chars": None, "pairs_found": 0}
    gens = psrep._min_generating_set(grp)
    per_gen = []
    cost = 1
    for g in gens:
        roots = ref_generator_roots(psr, g, budget)
        if not roots:
            return {"split": False, "trivial": False, "chars": None, "pairs_found": 0}
        per_gen.append(roots)
        cost *= len(roots)
        if cost > budget:
            raise BudgetExceeded(f"{cost} root combinations exceed the budget")
    chars, count = ref_character_split(psr, gens, per_gen)
    return {"split": chars is not None, "trivial": False, "chars": chars, "pairs_found": count}


# ---- comparison ------------------------------------------------------


def _plain(value):
    """Characters as (type, name, domain, values); anything else as it is."""
    if isinstance(value, groups.GroupChar):
        return (type(value), value.name, value.domain, [value(g).tolist() for g in value.domain])
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def root_sets(rows):
    return [sorted(tuple(x.tolist()) for x in row) for row in rows]


def outcome(fn, *args):
    try:
        out = fn(*args)
        return ("returned", root_sets(out) if isinstance(out, list) else _plain(out))
    except ERRORS as e:
        return ("raised", type(e), str(e))


def assert_agrees(psr, budget=200000):
    """Both splitters, and both root searches, give the same outcome on psr."""
    r = psr.ring
    assert outcome(psrep.residual_split, psr) == outcome(ref_residual_split, psr)
    assert outcome(psrep.split_as_characters, psr, budget) == outcome(ref_split_as_characters, psr, budget)
    if r.is_zero:
        return
    gens = psrep._min_generating_set(psr.group)
    got = outcome(psrep._quadratic_roots, r, psr.t[gens], psr.d[gens], budget)
    assert got == outcome(lambda: [ref_generator_roots(psr, g, budget) for g in gens])
    field = r.k == 1 and r.is_local and r.maximal_ideal().is_zero()
    if field and r.size <= 2500 and psrep.validate_pseudorep(psr)["ok"]:
        got = root_sets(psrep._quadratic_roots(r, psr.t, psr.d, None))
        assert got == root_sets(ref_pointwise_roots(psr, g) for g in psr.group.elements())


# ---- inputs ----------------------------------------------------------

F5 = rings.zmod_ring(5, 1)
F25 = rings.field_ring(5, 2)
Z25 = rings.zmod_ring(5, 2)
Z125 = rings.zmod_ring(5, 3)
C4 = groups.cyclic_group(4)
V4 = oracles.direct_product(groups.cyclic_group(2), groups.cyclic_group(2))


def _fourth_roots_of_unity(r):
    return [x for x in oracles.elements(r) if np.array_equal(r.pow_el(x, 4), r.one)]


def character_pairs(r):
    """psreps chi1 + chi2 for every pair of characters of C4 and of C2 x C2."""
    roots = _fourth_roots_of_unity(r)
    signs = [x for x in roots if np.array_equal(r.mul(x, x), r.one)]
    c4 = [groups.cyclic_char(C4, r, 1, u) for u in roots]
    # element 2a + b of C2 x C2 is (a, b)
    v4 = [
        groups.GroupChar(V4, r, {g: r.mul(r.pow_el(u, g // 2), r.pow_el(w, g % 2)) for g in range(4)})
        for u in signs
        for w in signs
    ]
    for chars in (c4, v4):
        for chi1, chi2 in itertools.combinations_with_replacement(chars, 2):
            chi1.check()
            chi2.check()
            yield psrep.psrep_from_chars(chi1, chi2)


@pytest.mark.parametrize("r", [F5, F25, Z25, Z125, T2], ids=lambda r: r.name)
def test_character_pairs_split_as_before(r):
    cases = list(character_pairs(r))
    assert len(cases) == 20
    for psr in cases:
        assert_agrees(psr)


def test_irreducible_and_deformed_traces_split_as_before():
    d5 = d5_t2_psrep()
    residual = psrep.psrep_base_change(d5, T2.residue_field().proj)
    for psr in (s3_irr_psrep(rings.zmod_ring(7, 1)), d4_irr_psrep(), d5, residual, _s3_f7()[0]):
        assert_agrees(psr)


def test_trivial_group_enumerates_nothing():
    c1 = groups.cyclic_group(1)
    chi = groups.trivial_char(c1, Z125)
    psr = psrep.psrep_from_chars(chi, chi)
    assert_agrees(psr, budget=10)
    out = psrep.split_as_characters(psr, budget=10)
    assert out["split"] and out["pairs_found"] == 1


def test_large_field_refuses_as_before():
    f = rings.field_ring(53, 2)
    assert f.size > 2500
    c2 = groups.cyclic_group(2)
    psr = psrep.psrep_from_chars(groups.trivial_char(c2, f), groups.cyclic_char(c2, f, 1, f.from_int(-1)))
    assert_agrees(psr)
    with pytest.raises(BudgetExceeded, match="square-root search field too large"):
        psrep.residual_split(psr)


def test_every_decision_split_as_before(tmp_path, monkeypatch):
    """Every splitter call the recorded ordinarity decisions reach."""
    seen = []

    def recorded(fn):
        def call(psr, *args, **kwargs):
            seen.append((psr, args, kwargs))
            return fn(psr, *args, **kwargs)

        return call

    for owner in (gma, ordinary, psrep):
        for name in ("residual_split", "split_as_characters"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, recorded(getattr(psrep, name)))
    units = decision_units(tmp_path)
    assert len(units) == 74
    for _, doc in units:
        state = scenarios._State(scenarios.load_scenario(doc))
        try:
            ordinary.is_ordinary_psrep(state.psr, state.kappa, budget=state.sc.budget)
        except ERRORS:
            pass
    monkeypatch.undo()
    assert len(seen) >= 74
    for psr, _, _ in seen:
        assert_agrees(psr)


def test_splitter_neither_inverts_nor_tests_units(monkeypatch):
    d5 = d5_t2_psrep()
    fields = [psrep.psrep_base_change(d5, T2.residue_field().proj), _s3_f7()[0], *character_pairs(F25)]
    counts = {}
    for name in ("is_unit", "inv"):
        _counter(monkeypatch, rings.FiniteRing, name, counts, name)
    for psr in fields:
        psrep.residual_split(psr)
        psrep.split_as_characters(psr)
    for psr in (d5, *character_pairs(Z125)):
        psrep.split_as_characters(psr)
    assert counts == {}
