"""The ordinarity decisions, locked by digest, and the work they may cost.

The report digests do not cover the decision's `checked`, `reason`
or witness `e1`.  `data/ordinary_decisions.json` holds one sha256 per
psrep unit of the full decision result (or of the error it raises): the
two bundled psrep scenarios and the psrep units of
`generate_corpus(s, 48)` for s = 1, 2, 3.  Regenerate it only on purpose:

    PYTHONPATH=src python tests/test_ordinary_decisions.py > tests/data/ordinary_decisions.json

The guards below count calls with `monkeypatch`: the decision reads J_R = 0
off one contraction over all its candidates, so it builds no two-sided
ideal; every candidate up to the winner keeps its structure checks, made
by one stacked `_check_gma_stack`, and the witness is read off that
check, so the decision runs no `gma_decompose`; a scenario lifts its
candidates once and decomposes one idempotent, the decision's; and
`validate_pseudorep` evaluates each law as one stack, so its ring
products do not grow with |G|^2.

A scenario's gma, reducibility and ordinary stages read the GMA of the
decision's idempotent, so an ordinary verdict comes with J_R = 0 in the
same report.  The S3 variants over F7 below, with Dp = {1, s} and
Ip = Dp or {1}, are ordinary only at a residual idempotent past the
first one.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import oracles

from exalg import algebras, gma, groups, ordinary, psrep, rings, scenarios
from exalg.errors import BudgetExceeded, InputError, InvariantViolation

DIGESTS = Path(__file__).resolve().parent / "data" / "ordinary_decisions.json"


def decision_units(out_dir) -> list:
    """(unit name, scenario doc) for every psrep unit the digests cover."""
    units = [(name, doc) for name, doc in sorted(scenarios.BUILTIN.items()) if doc["kind"] == "psrep"]
    for seed in (1, 2, 3):
        out = Path(out_dir) / f"seed{seed}"
        scenarios.generate_corpus(seed=seed, count=48, out_dir=out)
        for path in sorted(out.glob(f"gen{seed}-*.json")):
            doc = json.loads(path.read_text())
            if doc["kind"] == "psrep":
                units.append((path.stem, doc))
    return units


def decision_digest(doc) -> str:
    """sha256 of the canonical JSON of the unit's decision, or of its error."""
    state = scenarios._State(scenarios.load_scenario(doc))
    try:
        out = oracles.is_ordinary_psrep(state.psr, state.kappa, budget=state.sc.budget)
    except (InputError, BudgetExceeded, InvariantViolation) as e:
        out = {"raised": type(e).__name__, "message": str(e)}
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_decisions_match_their_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = {name: decision_digest(doc) for name, doc in decision_units(tmp_path)}
    assert len(got) == 2 + 3 * 24
    assert got == want


def _s3_f7(dp=(0, 1, 2), ip=(0, 1, 2)):
    """The standard representation of S3 over F7: a matrix residual, whose
    56 trace-1 idempotents all fail for the trivial kappa on the rotation
    marks."""
    grp = groups.symmetric_3().mark(dp=dp, ip=ip)
    f7 = rings.zmod_ring(7, 1)
    r = np.zeros((2, 2, 1), dtype=np.int64)
    r[0, 1], r[1, 0], r[1, 1] = 6, 1, 6
    s = np.zeros((2, 2, 1), dtype=np.int64)
    s[0, 1], s[1, 0] = 1, 1
    rep = oracles.MatrixRep2.from_generators(grp, f7, {1: r, 3: s})
    return oracles.psi_of_rep(rep), groups.trivial_char(grp, f7, domain=range(6), name="k")


def _counter(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _count_every_binding(monkeypatch, original, counts, key):
    """Count the calls of `original` through every binding of it in the package."""
    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("exalg") and mod is not None:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)


def test_decision_builds_no_ideal_and_checks_every_candidate_on_one_stack(monkeypatch):
    psr, kappa = _s3_f7()
    ch = gma.ch_quotient(psr)
    assert ch.residual.split["case"] == "matrix"
    psr2, kappa2 = _s3_f7(dp=(0, 3), ip=(0, 3))
    ch2 = gma.ch_quotient(psr2)
    assert ch2.residual.split["case"] == "matrix"
    counts = {}
    for owner in (algebras, gma):
        _counter(monkeypatch, owner, "two_sided_ideal_rows", counts, "two_sided_ideal_rows")
    _count_every_binding(monkeypatch, gma.gma_decompose, counts, "gma_decompose")
    stacks, check = [], ordinary._check_gma_stack

    def recorded(ch, es):
        stacks.append(len(es))
        return check(ch, es)

    monkeypatch.setattr(ordinary, "_check_gma_stack", recorded)
    out = ordinary._decide(ch, kappa, 400000)[0]
    assert out["supported"] and not out["ordinary"] and out["checked"] == 56
    assert stacks == [56]
    # an ordinary case: the rows up to the winner are checked, and the witness is read off that check
    stacks.clear()
    out = ordinary._decide(ch2, kappa2, 400000)[0]
    assert out["ordinary"] and out["checked"] == 5
    assert stacks == [5]
    assert counts.get("gma_decompose", 0) == 0 and counts.get("two_sided_ideal_rows", 0) == 0


def _s3_f7_docs() -> list:
    """The bundled S3 scenario over F7 with Dp = {1, s} and Ip = Dp or {1}."""
    docs = []
    for ip in ([0, 3], [0]):
        doc = json.loads(json.dumps(scenarios.BUILTIN["s3-irreducible"]))
        doc.update(name=f"s3-f7-ip{len(ip)}", ring={"kind": "field", "p": 7, "e": 1},
                   group={"kind": "sym3", "dp": [0, 3], "ip": ip})
        docs.append(doc)
    return docs


def test_s3_f7_ordinary_report_keeps_its_quotient():
    """The verdict's idempotent is the stage's: R^ord = F7, not the zero ring."""
    for doc in _s3_f7_docs():
        stage = scenarios.run_scenario(scenarios.load_scenario(doc)).stages["ordinary"]
        assert stage["psrep_ordinary"] and stage["rep_ordinary"], doc["name"]
        assert not stage["collapsed"] and stage["base_quotient_dim"] == 1
        assert stage["j_r_basis"].tolist() == []


def test_ordinary_verdicts_report_their_own_idempotent(tmp_path):
    """Whenever the decision says ordinary, the gma stage's e1 is its
    witness and the ordinary stage's J_R is zero."""
    ordinary_units = 0
    for doc in [d for _, d in decision_units(tmp_path)] + _s3_f7_docs():
        sc = scenarios.load_scenario(doc)
        report = scenarios.run_scenario(sc)
        stage = report.stages["ordinary"]
        if not stage["psrep_ordinary"]:
            continue
        ordinary_units += 1
        st = scenarios._State(sc)
        witness = oracles.is_ordinary_psrep(st.psr, st.kappa, budget=sc.budget)["witness"]
        assert report.stages["gma"]["e1"].tolist() == witness["e1"], sc.name
        assert stage["j_r_basis"].size == 0, sc.name
    assert ordinary_units == 41


def test_a_scenario_lifts_and_decomposes_once(tmp_path, monkeypatch):
    """Every bundled and generate_corpus(1, 48) psrep unit: one stacked
    Newton lift, one `gma_decompose` and one group algebra A[G] (every base
    change is a quotient of the algebra already built), counted through
    every binding."""
    originals = {
        "gma_decompose": gma.gma_decompose,
        "_newton_lift": gma._newton_lift,
        "group_algebra": algebras.group_algebra,
    }
    units = [(name, doc) for name, doc in decision_units(tmp_path) if not name.startswith(("gen2-", "gen3-"))]
    assert len(units) == 2 + 24
    for name, doc in units:
        counts = {}
        with monkeypatch.context() as m:
            for key, fn in originals.items():
                _count_every_binding(m, fn, counts, key)
            scenarios.run_scenario(scenarios.load_scenario(doc))
        assert max(counts.values(), default=0) <= 1, (name, counts)


def test_validate_pseudorep_products_do_not_grow_with_the_group(monkeypatch):
    s3, _ = _s3_f7()
    f7 = rings.zmod_ring(7, 1)
    c12 = groups.cyclic_group(12)
    chi = groups.cyclic_char(c12, f7, 1, f7.from_int(3))
    c12_psr = psrep.psrep_from_chars(chi, groups.trivial_char(c12, f7))
    calls = []
    for psr in (s3, c12_psr):
        counts = {}
        with monkeypatch.context() as m:
            _counter(m, rings.FiniteRing, "mul", counts, "mul")
            assert psrep.validate_pseudorep(psr)["ok"]
        calls.append(counts["mul"])
    assert calls[0] == calls[1] <= 2


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        digests = {name: decision_digest(doc) for name, doc in decision_units(d)}
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
