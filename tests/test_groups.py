"""Group tables, marks, and characters."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import groups, rings
from exalg.errors import InputError, InvariantViolation

F5 = rings.zmod_ring(5, 1)
F25 = rings.field_ring(5, 2)
F7 = rings.zmod_ring(7, 1)


def test_cyclic_group_structure():
    c6 = groups.cyclic_group(6)
    assert c6.m == 6
    assert c6.mul(2, 5) == 1
    assert c6.inv(2) == 4
    assert c6.order_of(2) == 3
    assert c6.order_of(1) == 6


def test_dihedral_relations():
    d4 = groups.dihedral_group(4)
    assert d4.m == 8
    r, s = 1, 4
    assert d4.order_of(r) == 4
    assert d4.order_of(s) == 2
    # s r s^-1 = r^-1
    assert d4.mul(d4.mul(s, r), d4.inv(s)) == d4.inv(r)
    assert d4.names[1] == "r" and d4.names[4] == "s"


def test_symmetric_3_is_nonabelian_of_order_6():
    s3 = groups.symmetric_3()
    assert s3.m == 6
    assert any(s3.mul(a, b) != s3.mul(b, a) for a in range(6) for b in range(6))
    # three reflections, two 3-cycles, identity
    orders = sorted(s3.order_of(g) for g in s3.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_direct_product():
    g = oracles.direct_product(groups.cyclic_group(2), groups.cyclic_group(3))
    assert g.m == 6
    assert g.order_of(g.mul(3, 1)) in (2, 3, 6)
    orders = sorted(g.order_of(x) for x in g.elements())
    assert orders == [1, 2, 3, 3, 6, 6]  # C2 x C3 = C6


def test_subgroup_closure_and_marks():
    d3 = groups.dihedral_group(3)
    rot = d3.subgroup_closure([1])
    assert rot == (0, 1, 2)
    assert d3.is_subgroup(rot)
    # normal: closed under conjugation
    assert all(d3.mul(d3.mul(g, h), d3.inv(g)) in rot for g in range(d3.m) for h in rot)
    refl = d3.subgroup_closure([3])
    assert refl == (0, 3)
    assert not all(d3.mul(d3.mul(g, h), d3.inv(g)) in refl for g in range(d3.m) for h in refl)
    marked = d3.mark(dp=rot, ip=(0,))
    assert marked.dp == (0, 1, 2) and marked.ip == (0,)
    with pytest.raises(InputError):
        d3.mark(dp=(0, 1), ip=(0,))  # not closed
    with pytest.raises(InputError):
        d3.mark(dp=(0, 3), ip=(0, 1, 2))  # inertia escapes decomposition


def test_marking_shares_the_checked_table_and_checks_the_marks(monkeypatch):
    d3 = groups.dihedral_group(3)
    monkeypatch.setattr(groups.MarkedGroup, "check_group", lambda self: pytest.fail("table checked again"))
    marked = d3.mark(dp=(0, 1, 2), ip=(0,))
    assert marked.table is d3.table and marked._inv is d3._inv and d3.dp is None
    assert (marked.dp, marked.ip) == ((0, 1, 2), (0,))
    for dp, ip in [((0, 1), (0,)), ((0, 1, 2), (0, 1, 2, 6)), ((0, 3), (0, 1, 2))]:
        with pytest.raises(InputError):
            d3.mark(dp=dp, ip=ip)


def test_bad_tables_rejected():
    with pytest.raises(InvariantViolation):
        groups.MarkedGroup(np.array([[0, 1], [1, 1]]))  # not a bijection
    t = np.array([[1, 0], [0, 1]])
    with pytest.raises(InvariantViolation):
        groups.MarkedGroup(t)  # identity index wrong


def test_trivial_and_cyclic_characters():
    c4 = groups.cyclic_group(4)
    one = groups.trivial_char(c4, F5)
    one.check()
    assert np.array_equal(one(3), F5.one)
    # g -> 2, an element of order 4 in F5*
    chi = groups.cyclic_char(c4, F5, 1, np.array([2]))
    chi.check()
    assert chi(1).tolist() == [2]
    assert chi(2).tolist() == [4]
    assert chi(3).tolist() == [3]
    assert chi.inv_value(1).tolist() == [3]
    with pytest.raises(InputError):
        groups.cyclic_char(c4, F5, 1, np.array([2]) * 0)  # 0 has no multiplicative order


def test_character_on_subgroup_only():
    d3 = groups.dihedral_group(3)
    rot = d3.subgroup_closure([1])
    # order-3 character into F25: need an element of multiplicative order 3
    theta_pow = None
    for x in oracles.elements(F25):
        if x.any() and np.array_equal(F25.pow_el(x, 3), F25.one) and not np.array_equal(x, F25.one):
            theta_pow = x
            break
    chi = groups.cyclic_char(d3, F25, 1, theta_pow)
    assert chi.domain == rot
    with pytest.raises(InputError):
        chi(3)


def test_a_character_is_checked_once_and_its_values_are_read_only(monkeypatch):
    c4 = groups.cyclic_group(4)
    chi = groups.cyclic_char(c4, F5, 1, np.array([2]))  # checked when built
    monkeypatch.setattr(groups.MarkedGroup, "is_subgroup", lambda *_: pytest.fail("character checked again"))
    chi.check()
    with pytest.raises(ValueError):
        chi(1)[0] = 3


def test_character_multiplicativity_enforced():
    c2 = groups.cyclic_group(2)
    bad = groups.GroupChar(c2, F5, {0: F5.one, 1: np.array([2])})
    with pytest.raises(InvariantViolation):
        bad.check()  # 2*2 = 4 != 1


def _loop_char_failure(chi):
    """First failure of the unit and product checks of `GroupChar.check`,
    one value and one pair at a time."""
    grp, r = chi.group, chi.ring
    for a in chi.domain:
        if not r.is_unit(chi.values[a]):
            return f"character value at {a} is not a unit"
        for b in chi.domain:
            if not np.array_equal(chi(grp.mul(a, b)), r.mul(chi(a), chi(b))):
                return f"character fails at ({a},{b})"
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["c4", "d3-rotations", "c4-z25"]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 24)), max_size=3),
)
def test_stacked_character_check_matches_the_per_pair_reference(case, edits):
    """Corrupted values (zero ones included) fail the stacked check with the
    message the per-value, per-pair loop meets first; intact ones pass both."""
    if case == "c4":
        chi = groups.cyclic_char(groups.cyclic_group(4), F5, 1, np.array([2]))
    elif case == "d3-rotations":
        theta = next(x for x in oracles.elements(F25) if np.array_equal(F25.mul(x, F25.mul(x, x)), F25.one) and x[1])
        chi = groups.cyclic_char(groups.dihedral_group(3), F25, 1, theta)
    else:
        chi = groups.cyclic_char(groups.cyclic_group(4), rings.zmod_ring(5, 2), 1, np.array([7]))
    values = {g: v.copy() for g, v in chi.values.items()}
    for which, where, delta in edits:
        g = chi.domain[which % len(chi.domain)]
        if g == chi.group.identity:
            continue  # the identity value is checked on its own, before the stacks
        values[g][where % chi.ring.n] += delta
    bad = groups.GroupChar(chi.group, chi.ring, values, name=chi.name)
    try:
        bad.check()
        got = None
    except InvariantViolation as exc:
        got = str(exc)
    assert got == _loop_char_failure(bad)
