"""Augmented algebras over a truncated DVR, the numerical criterion,
and the fiber-product towers.

The congruence ideal is oracled by raw enumeration: on a base small
enough to list every ring element, the annihilator of the augmentation
kernel is recomputed elementwise and the eta image compared span for
span.  Cotangent lengths get the same treatment through additive
product spans.  On top of the oracles sit frozen values: the split
two-branch algebra has eta = (t^r) and cotangent length r, the glued
towers reproduce their known condition tables, and the criterion is
exercised in both the conclusive and the no-conclusion direction.

The annihilator identities of a tower hold exactly in one direction
and only up to a truncation tail in the other; one test pins the tail
as genuinely nonempty so the window in the verifier is not decorative.
"""

import functools
import gc
import sys
import weakref

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import linalg, rings, scenarios, towers
from exalg.errors import BudgetExceeded, InputError, InvariantViolation
from exalg.rings import DvrModel, Ideal, RingMap

O5 = DvrModel(5, 1, 16)
O3S = DvrModel(3, 1, 4)


def principal(o: DvrModel, power: int) -> Ideal:
    return Ideal(o.ring, o.t(power).reshape(1, -1))


@pytest.fixture(scope="module")
def corpus():
    return towers.tower_corpus()


# ---- enumeration oracles --------------------------------------------


def brute_annihilator(ring, ideal):
    rows = [v for v in oracles.elements(ring) if not ((ideal.basis @ ring.mul_matrix(v)) % ring.char).any()]
    return linalg.howell_form(np.array(rows, dtype=np.int64), ring.p, ring.k, ncols=ring.n)


def test_annihilator_matches_enumeration():
    t = towers.branch_algebra(O3S, 2)
    brute = brute_annihilator(t.ring, t.wp)
    assert linalg.span_equal(brute, t.wp.annihilator().basis)


def test_eta_matches_enumeration():
    t = towers.branch_algebra(O3S, 2)
    brute = brute_annihilator(t.ring, t.wp)
    img = linalg.howell_form((brute @ t.pi.matrix) % 3, 3, 1, ncols=O3S.ring.n)
    assert linalg.span_equal(img, towers.eta_invariant(t).basis)


def test_cotangent_matches_enumeration():
    t = towers.branch_algebra(O3S, 2)
    kernel_rows = np.array([v for v in oracles.elements(t.ring) if not t.pi(v).any()], dtype=np.int64)
    wp = linalg.howell_form(kernel_rows, 3, 1, ncols=t.ring.n)
    prods = np.array([t.ring.mul(a, b) for a in wp for b in wp], dtype=np.int64)
    wp2 = linalg.howell_form(prods, 3, 1, ncols=t.ring.n)
    brute_len = linalg.span_log_size(wp, 3, 1) - linalg.span_log_size(wp2, 3, 1)
    assert towers.cotangent_length(t.ring, t.wp, O3S) == brute_len == 2


# ---- augmented algebras ---------------------------------------------


def test_base_algebra_is_trivial():
    t = towers.base_algebra(O5)
    assert t.rank == 1
    assert t.wp.is_zero()
    assert towers.ideal_colength(O5, towers.eta_invariant(t)) == 0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_branch_eta_is_xi(r):
    t = towers.branch_algebra(O5, r)
    assert t.rank == 2
    assert towers.eta_invariant(t) == principal(O5, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_branch_cotangent_length(r):
    t = towers.branch_algebra(O5, r)
    assert towers.cotangent_length(t.ring, t.wp, O5) == r


def test_square_zero_cotangent_saturates_truncation():
    # the honest value is infinite; the truncated model reports N
    t = oracles.square_zero_algebra(O5)
    assert towers.cotangent_length(t.ring, t.wp, O5) == O5.trunc
    short = oracles.square_zero_algebra(DvrModel(5, 1, 8))
    assert towers.cotangent_length(short.ring, short.wp, DvrModel(5, 1, 8)) == 8


def doubling_map(o: DvrModel) -> RingMap:
    """t -> t^2 on the base: a unital ring hom that is not surjective."""
    rows = np.zeros((o.ring.n, o.ring.n), dtype=np.int64)
    for i in range(o.trunc):
        for j in range(o.ring.n // o.trunc):
            src = i * (o.ring.n // o.trunc) + j
            rows[src] = o.ring.mul(o.t(2 * i) if 2 * i < o.trunc else np.zeros(o.ring.n, dtype=np.int64),
                                   _residue_unit(o, j))
    return RingMap(o.ring, o.ring, rows, name="double")


def _residue_unit(o: DvrModel, j: int) -> np.ndarray:
    v = np.zeros(o.ring.n, dtype=np.int64)
    v[j] = 1
    return v


def test_augmentation_must_be_surjective():
    d = doubling_map(O5)
    d.check_hom()
    with pytest.raises(InputError, match="surjective"):
        towers.augmented_algebra(O5, O5.ring, d, RingMap.identity(O5.ring))


def test_augmentation_must_split():
    d = doubling_map(O5)
    with pytest.raises(InputError, match="split"):
        towers.augmented_algebra(O5, O5.ring, RingMap.identity(O5.ring), d)


def test_torsion_quotient_is_not_free():
    quot = O5.quotient_mod_t(3)
    with pytest.raises(InputError, match="free"):
        towers._free_basis(O5, quot.ring, quot.proj)


@settings(max_examples=8, deadline=None)
@given(m=st.integers(min_value=1, max_value=3), p=st.sampled_from([3, 5]))
def test_branch_invariants_small(m, p):
    o = DvrModel(p, 1, 8)
    t = towers.branch_algebra(o, m)
    assert towers.eta_invariant(t) == Ideal(o.ring, o.t(m).reshape(1, -1))
    assert towers.cotangent_length(t.ring, t.wp, o) == m


# ---- the numerical criterion ----------------------------------------


def test_lenstra_identity_on_base():
    rep = towers.lenstra_check(O5.ring, RingMap.identity(O5.ring), towers.base_algebra(O5))
    assert rep["criterion_met"] and rep["isomorphism"] and rep["complete_intersection"]
    assert rep["cotangent_length"] == rep["eta_colength"] == 0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lenstra_branch_identity(r):
    t = towers.branch_algebra(O5, r)
    rep = towers.lenstra_check(t.ring, RingMap.identity(t.ring), t)
    assert rep["cotangent_length"] == r
    assert rep["eta_colength"] == r
    assert rep["criterion_met"] is True
    assert rep["isomorphism"] is True
    assert rep["complete_intersection"] is True
    assert rep["presentation_degree"] == 2


def test_lenstra_no_conclusion():
    # cotangent length 1 against congruence colength 0: the inequality
    # fails and nothing further may be claimed
    ring, pi = towers.pinched_cubic(O5)
    rep = towers.lenstra_check(ring, pi, towers.base_algebra(O5))
    assert rep["cotangent_length"] == 1
    assert rep["eta_colength"] == 0
    assert rep["criterion_met"] is False
    assert rep["isomorphism"] is None
    assert rep["complete_intersection"] is None


def test_lenstra_rejects_non_surjective():
    t = towers.branch_algebra(O5, 1)
    folded = t.pi.then(t.emb)
    with pytest.raises(InputError, match="surjective"):
        towers.lenstra_check(t.ring, folded, t)


def test_forged_congruence_ideal_is_hard_failure():
    # a witness whose congruence ideal was inflated by hand meets the
    # numerical bound, but the promised isomorphism cannot be verified
    ident = RingMap.identity(O5.ring)
    forged = towers.AugmentedAlgebra(
        o=O5, ring=O5.ring, pi=ident, emb=ident,
        wp=principal(O5, 8), rank=1, lam_basis=O5.ring.one.reshape(1, -1),
    )
    ring, pi = towers.pinched_cubic(O5)
    with pytest.raises(InvariantViolation, match="isomorphism"):
        towers.lenstra_check(ring, pi, forged)


def test_ci_route_declines_fat_kernel():
    assert towers.complete_intersection_route(towers.axis_algebra(O5, 3)) is None


def test_ci_route_relation_is_exact():
    pres = towers.complete_intersection_route(towers.branch_algebra(O5, 2))
    assert pres["degree"] == 2
    assert not pres["relation"][0].any()
    assert np.array_equal(pres["relation"][1], O5.t(2))


# ---- tower construction guards --------------------------------------


def test_tower_rejects_torsion_level():
    with pytest.raises(InputError, match="free"):
        towers.build_eisenstein_tower(O5, 1, {"kind": "mod", "j": 3})


def test_tower_rejects_unknown_kind():
    with pytest.raises(InputError, match="kind"):
        towers.build_eisenstein_tower(O5, 1, {"kind": "cusp"})


def test_tower_rejects_bad_exponent():
    with pytest.raises(InputError):
        towers.build_eisenstein_tower(O5, -1, {"kind": "plane"})
    with pytest.raises(InputError, match="4r"):
        towers.build_eisenstein_tower(O5, 5, {"kind": "plane"})


def test_builder_guards():
    with pytest.raises(InputError):
        towers.branch_algebra(O5, 0)
    with pytest.raises(InputError):
        towers.axis_algebra(O5, 1)


# ---- towers: frozen structure ---------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
def test_plane_tower(r):
    t = towers.build_eisenstein_tower(O5, r, {"kind": "plane"})
    assert t.H.n == 2 * O5.ring.n - r
    assert np.array_equal(t.pr_lam(t.T0), O5.t(r))
    assert not t.pr_h(t.T0).any()
    assert t.I == principal(O5, r)
    assert towers.tower_eta(t) == principal(O5, r)
    aud = towers.theorem_audit(t)
    assert aud["regular_base"] and aud["principal_nzd"] and aud["both_principal"]
    assert aud["embdim"] == 2 and aud["both_gorenstein"]
    assert aud["complete_intersection"] is True
    assert aud["multiplicity_one"] == (r == 1)
    assert aud["transversality_field"] == (r == 1)
    assert aud["eisenstein_colength"] == r


def test_eta_cross_checked_against_t0():
    t = towers.build_eisenstein_tower(O5, 2, {"kind": "plane"})
    eta = towers.tower_eta(t)
    # lower bound: the image of T0 already lands in the congruence ideal
    assert eta.contains_ideal(Ideal(O5.ring, t.pr_lam(t.T0).reshape(1, -1)))
    # upper bound: eta is inside (xi)
    assert principal(O5, 2).contains_ideal(eta)


def test_annihilator_tail_is_real():
    # Ann(ker(H -> base)) strictly exceeds ker(H -> h): the excess is the
    # truncation tail, which vanishes in the limit and is quotiented out
    # by the verifier's window
    t = towers.build_eisenstein_tower(O5, 2, {"kind": "plane"})
    ann = t.script_I.annihilator()
    assert ann.contains_ideal(t.ker_h)
    assert not linalg.span_equal(ann.basis, t.ker_h.basis)
    tail = Ideal(t.H, t.emb_H(O5.t(O5.trunc - t.glue)).reshape(1, -1))
    assert linalg.span_equal(ann.add_ideal(tail).basis, t.ker_h.add_ideal(tail).basis)


@pytest.mark.parametrize("s,embdim", [(2, 3), (3, 4)])
def test_axes_tower(s, embdim):
    lam = DvrModel(5, 1, 16 if s == 2 else 10)
    t = towers.build_eisenstein_tower(lam, 1, {"kind": "axes", "s": s})
    aud = towers.theorem_audit(t)
    assert aud["eisenstein_generators"] == s
    assert aud["embdim"] == embdim
    assert not aud["principal_nzd"] and not aud["both_principal"]
    assert not aud["embdim_two"] and not aud["both_gorenstein"]
    assert aud["gorenstein_h"] == (s == 2)
    assert aud["gorenstein_full"] is False
    assert aud["complete_intersection"] is None
    assert aud["eisenstein_colength"] == 1


def test_branch_tower():
    t = towers.build_eisenstein_tower(O5, 1, {"kind": "branch", "m": 2})
    aud = towers.theorem_audit(t)
    assert aud["eisenstein_generators"] == 2
    assert aud["embdim"] == 3
    assert not aud["principal_nzd"] and not aud["both_gorenstein"]
    # the h-level alone is a complete intersection; the audit still
    # reports the glued conditions as false
    assert aud["gorenstein_h"] is True
    assert aud["gorenstein_full"] is False


def test_degenerate_tower():
    t = towers.build_eisenstein_tower(O5, 0, {"kind": "plane"})
    assert t.degenerate
    assert np.array_equal(t.pr_lam(t.T0), O5.ring.one)
    aud = towers.theorem_audit(t)
    assert aud["degenerate"] and aud["consistent"]
    assert aud["principal_nzd"] == "skipped"
    # over the zero gluing ring there is no tail: annihilators match on the nose
    assert linalg.span_equal(t.script_I.annihilator().basis, t.ker_h.basis)
    assert linalg.span_equal(t.ker_h.annihilator().basis, t.script_I.basis)


# ---- corpus-wide invariants -----------------------------------------


def test_corpus_shape(corpus):
    labels = [t.label for t in corpus]
    assert len(corpus) >= 20
    assert len(set(labels)) == len(labels)
    assert {t.lam.ring.p for t in corpus} == {3, 5, 7}
    assert any(t.lam.q == 25 for t in corpus)


def test_corpus_condition_table(corpus):
    table = towers.audit_table(corpus)
    assert [row["label"] for row in table] == sorted(row["label"] for row in table)
    block = ("principal_nzd", "both_principal", "embdim_two", "both_gorenstein")
    nongor = 0
    for row in table:
        verdicts = {row[key] for key in block}
        assert len(verdicts) == 1, row["label"]
        assert row["colength_matches_r"], row["label"]
        assert row["consistent"]
        if row["gorenstein_h"] is False:
            nongor += 1
        if row["label"].startswith("plane"):
            assert verdicts == {True}
            assert row["complete_intersection"] is True
        else:
            assert verdicts == {False}
    assert nongor >= 5


def test_corpus_eta_colength(corpus):
    for t in corpus:
        eta = towers.tower_eta(t)
        assert eta == Ideal(t.lam.ring, t.xi.reshape(1, -1)), t.label
        assert towers.ideal_colength(t.lam, eta) == t.r, t.label


def test_corpus_fitting_replay(corpus):
    for t in corpus:
        rep = towers.fitting_replay(t)
        assert rep["annihilator_vanishes"], t.label
        assert rep["fitting_vanishes"], t.label
        assert rep["bound_met"], t.label
        kind = t.label.split("-")[0]
        if kind == "plane":
            assert rep["cotangent_length"] == t.r
        elif kind == "axes":
            assert rep["cotangent_length"] == int(t.label.split("-s")[1][0])
        elif kind == "branch":
            m = int(t.label.split("-m")[1][0])
            assert rep["cotangent_length"] == t.r + min(t.r, m)


def test_tower_repr_and_labels(corpus):
    t = corpus[0]
    assert t.label in repr(t)
    assert repr(t).startswith("<EisensteinTower")


# ---- each derived object once per unit, and no memo cycles -----------

BRANCH_UNIT = {
    "name": "branch-memo",
    "kind": "tower",
    "seed": 0,
    "budget": 200000,
    "dvr": {"p": 5, "e": 1, "trunc": 12},
    "r": 2,
    "h": {"kind": "branch", "m": 3},
    "stages": ["build", "audit", "criterion", "replay"],
}


def _keep_tower(monkeypatch) -> list:
    """Record the tower that a scenario builds."""
    built, build = [], towers.build_eisenstein_tower

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(towers, "build_eisenstein_tower", keep)
    return built


def test_a_tower_unit_leaves_no_reference_cycle(monkeypatch):
    """No memo points back at the object that holds it: once the unit is
    done, its rings are freed by reference counting alone."""
    built = _keep_tower(monkeypatch)
    gc.disable()
    try:
        report = scenarios.run_scenario(BRANCH_UNIT)
        assert report.verdict == "ok"
        t = built.pop()
        refs = [weakref.ref(t.H), weakref.ref(t.h)]
        del t, report
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_tower_unit_derives_each_object_once(monkeypatch):
    built = _keep_tower(monkeypatch)
    h_levels, gens, annihilated = [], [], []
    h_level, min_rows = towers._h_level, towers._min_module_rows
    monkeypatch.setattr(towers, "_h_level", lambda *a: h_levels.append(a) or h_level(*a))
    monkeypatch.setattr(towers, "_min_module_rows", lambda *a: gens.append(a) or min_rows(*a))
    ann = rings.Ideal.__dict__["_annihilator"].func
    counted = functools.cached_property(lambda ideal: annihilated.append(ideal) or ann(ideal))
    counted.__set_name__(rings.Ideal, "_annihilator")
    monkeypatch.setattr(rings.Ideal, "_annihilator", counted)
    assert scenarios.run_scenario(BRANCH_UNIT).verdict == "ok"
    t = built[0]
    assert len(h_levels) == 1
    assert sum(ring is t.h and g == 1 and np.array_equal(rows, t.I.basis) for ring, rows, g in gens) == 1
    assert sum(ideal is t.script_I for ideal in annihilated) == 1


@pytest.mark.parametrize("spec", [towers._CORPUS_SPECS[i] for i in (0, 9, 10, 17)],
                         ids=["plane", "plane-F25", "axes", "branch"])
def test_frobenius_runs_only_on_entry_rings(spec, monkeypatch):
    """Build, audit and replay of one corpus tower run Frobenius only on
    the rings no residue map reaches, and no ring of a tower is such an
    entry ring: the base F_q[t]/(t^N) carries its residue map from
    `truncated_poly_ring` over `field_ring`, the branch and axes h-levels
    carry pi . rho_base, and every quotient and fibre product after them
    reads its residue map.  So Frobenius runs on no ring."""
    seen, frobenius = [], rings._frobenius_rows
    monkeypatch.setattr(rings, "_frobenius_rows", lambda r: seen.append(r) or frobenius(r))
    p, e, trunc, r, h_spec = spec
    t = towers.build_eisenstein_tower(DvrModel(p, e, trunc), r, dict(h_spec))
    towers.theorem_audit(t)
    towers.fitting_replay(t)
    assert seen == []


def test_replay_refuses_by_minor_count_before_picking(monkeypatch):
    """The h.s = 5 axes tower over F5 at trunc 12 has a relation module
    whose minimal presentation would have 20,349 maximal minors: the
    replay refuses it once d = dim M/mM is known, before any pick runs."""
    picks, reduce = [], linalg.FactoredSpan.reduce

    def counted(span, vecs):  # the residuals each pick of `_min_module_rows` tests
        if sys._getframe(1).f_code.co_name == "_min_module_rows":
            picks.append(len(vecs))
        return reduce(span, vecs)

    within, past = (towers.build_eisenstein_tower(DvrModel(5, 1, 12), 1, {"kind": "axes", "s": s}) for s in (2, 5))
    within.i_gens, past.i_gens  # the generators of I, picked before the relation module
    monkeypatch.setattr(linalg.FactoredSpan, "reduce", counted)
    assert towers.fitting_replay(within)["bound_met"] and picks  # the counter sees the picks
    picks.clear()
    with pytest.raises(BudgetExceeded, match=r"^minor count 20349 exceeds budget 20000$"):
        towers.fitting_replay(past)
    assert picks == []
