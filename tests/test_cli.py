"""Bundled scenarios, report determinism, and the command line contract.

The three bundled scenarios are frozen end to end: the diagonal pair is
ordinary with an intact base, the irreducible symmetric-group instance
has unit reducibility ideal and a collapsing ordinary quotient, and the
plane tower passes the structural audit and the numerical criterion.
Certificates quoted in the reports are re-verified here from scratch.
"""

import contextlib
import dataclasses
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exalg import cli, gma, psrep, scenarios, serialize, towers
from exalg.errors import BudgetExceeded, InputError, InvariantViolation
from exalg.rings import Ideal, zmod_ring

BUNDLE_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def reports():
    return {name: scenarios.run_scenario(scenarios.load_scenario(name)) for name in scenarios.BUILTIN}


# ---- bundled files ---------------------------------------------------


def test_bundled_files_match_builtin_documents():
    for name, doc in scenarios.BUILTIN.items():
        on_disk = (BUNDLE_DIR / f"{name}.json").read_text()
        assert on_disk == serialize.canonical_json(doc), name


def test_bundled_files_load_as_paths(reports):
    sc = scenarios.load_scenario(BUNDLE_DIR / "diag-ordinary.json")
    assert sc.name == "diag-ordinary" and sc.kind == "psrep"
    rep = scenarios.run_scenario(sc)
    assert rep.canonical() == reports["diag-ordinary"].canonical()


# ---- frozen outcomes -------------------------------------------------


def test_diag_ordinary_report(reports):
    st = reports["diag-ordinary"].stages
    assert reports["diag-ordinary"].verdict == "ok"
    assert st["validate"]["ok"] and st["validate"]["failures"] == []
    assert st["ch"]["dim"] == 2
    assert st["gma"]["e1"].tolist() == [1, 4]
    assert st["gma"]["b_rows"] == 0 and st["gma"]["c_rows"] == 0
    assert st["reducibility"]["zero"] and not st["reducibility"]["unit"]
    o = st["ordinary"]
    assert o["alignment"] == "corner1"
    assert o["rep_ordinary"] and o["witness"] is None
    assert o["psrep_supported"] and o["psrep_ordinary"]
    assert not o["collapsed"] and o["e_ord_dim"] == 2
    assert len(o["j_r_basis"]) == 0


def test_s3_irreducible_report(reports):
    st = reports["s3-irreducible"].stages
    assert st["ch"]["dim"] == 4
    assert st["gma"]["e1"].tolist() == [0, 4, 0, 1]
    assert st["gma"]["b_rows"] == 1 and st["gma"]["c_rows"] == 1
    red = st["reducibility"]
    assert red["unit"] and red["quotient_dim"] == 0 and red["split"]
    assert red["ideal_basis"].tolist() == [[1]]
    o = st["ordinary"]
    assert o["alignment"] == "nonsplit"
    assert not o["rep_ordinary"]
    assert o["witness"]["element"] == 1 and o["witness"]["coordinate"] == "rho12"
    assert not o["psrep_supported"]
    assert o["collapsed"] and o["base_quotient_dim"] == 0
    assert o["j_r_basis"].tolist() == [[1]]


def test_plane_tower_report(reports):
    st = reports["plane-tower-r2"].stages
    assert st["build"]["h_dim"] == 16 and st["build"]["glued_dim"] == 30
    audit = st["audit"]
    for key in (
        "regular_base", "principal_nzd", "both_principal", "embdim_two",
        "both_gorenstein", "colength_matches_r", "consistent",
        "complete_intersection",
    ):
        assert audit[key] is True, key
    # multiplicity one singles out r = 1; this tower has r = 2
    assert audit["multiplicity_one"] is False
    assert audit["eisenstein_colength"] == 2
    crit = st["criterion"]
    assert crit["cotangent_length"] == 2 == crit["eta_colength"]
    assert crit["criterion_met"] and crit["isomorphism"] and crit["complete_intersection"]
    assert crit["presentation_degree"] == 2 and crit["model"] == "rank2"
    replay = st["replay"]
    assert replay["annihilator_vanishes"] and replay["bound_met"] and replay["bound"] == 2


# ---- certificates re-verify ------------------------------------------


def test_quoted_idempotent_re_verifies(reports):
    body = scenarios.BUILTIN["diag-ordinary"]
    st = scenarios._State(scenarios.load_scenario("diag-ordinary"))
    ch = st.ch
    e1 = np.asarray(reports["diag-ordinary"].stages["gma"]["e1"])
    assert np.array_equal(ch.algebra.mul(e1, e1), e1)
    assert np.array_equal(ch.t_el(e1), ch.base.one)
    assert body["kind"] == "psrep"


def test_quoted_witness_re_verifies(reports):
    st = scenarios._State(scenarios.load_scenario("s3-irreducible"))
    ch = st.ch
    rep = reports["s3-irreducible"].stages
    g = gma.gma_decompose(ch, np.asarray(rep["gma"]["e1"]))
    w = rep["ordinary"]["witness"]
    off_diag = (ch.rho(w["element"]) @ oracles.peirce(g)[1]) % ch.algebra.char
    assert off_diag.any()  # the quoted coordinate really is nonzero
    f5 = zmod_ring(5, 1)
    ideal = Ideal(f5, np.asarray(rep["reducibility"]["ideal_basis"]))
    assert ideal.contains(f5.one)


def test_quoted_tower_certificate_re_verifies(reports):
    sc = scenarios.load_scenario("plane-tower-r2")
    st = scenarios._State(sc)
    t = st.tower
    assert np.array_equal(t.T0, np.asarray(reports["plane-tower-r2"].stages["build"]["T0"]))
    assert towers.ideal_colength(st.lam, towers.tower_eta(t)) == 2


# ---- determinism -----------------------------------------------------


def test_reports_are_bit_identical_across_runs(reports):
    for name in scenarios.BUILTIN:
        again = scenarios.run_scenario(scenarios.load_scenario(name))
        assert again.canonical() == reports[name].canonical(), name
        assert "timing" not in json.loads(again.canonical())


def test_seed_override_enters_the_report():
    sc = scenarios.load_scenario("diag-ordinary", seed=77)
    rep = scenarios.run_scenario(dataclasses.replace(sc, stages=("validate",)))
    assert rep.seed == 77
    assert json.loads(rep.canonical())["seed"] == 77


# ---- command line ----------------------------------------------------


def test_pipeline_exit_zero_and_json_stdout(capsys):
    assert cli.main(["pipeline", "diag-ordinary"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == serialize.REPORT_SCHEMA
    assert doc["scenario"] == "diag-ordinary" and doc["verdict"] == "ok"
    # canonical form sorts keys, so compare as sets
    assert set(doc["stages"]) == {"validate", "ch", "gma", "reducibility", "ordinary"}


def test_validate_subcommand_runs_one_stage(capsys):
    assert cli.main(["validate", "diag-ordinary"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["stages"]) == ["validate"]
    assert cli.main(["validate", "plane-tower-r2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["stages"]) == ["build"]  # towers validate by rebuilding


def test_audit_subcommand_on_tower(capsys):
    assert cli.main(["audit", "plane-tower-r2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["stages"]) == {"build", "audit"}
    assert doc["stages"]["audit"]["consistent"] is True


def test_missing_scenario_is_input_error(capsys):
    assert cli.main(["pipeline", "no-such-scenario"]) == 2
    assert capsys.readouterr().err == (
        "error: scenario no-such-scenario, stage load: no scenario file or bundled scenario by that name\n")


def _bundled_variant(tmp_path, name, edit):
    doc = json.loads(json.dumps(scenarios.BUILTIN[name]))
    edit(doc)
    path = tmp_path / f"{name}-variant.json"
    path.write_text(serialize.canonical_json(doc))
    return str(path)


def test_unsupported_modulus_is_input_error(tmp_path, capsys):
    path = _bundled_variant(tmp_path, "diag-ordinary", lambda d: d["ring"].update(p=9))
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prime" in err and err.count("\n") == 1


def test_missing_scenario_field_is_input_error(tmp_path, capsys):
    path = _bundled_variant(tmp_path, "diag-ordinary", lambda d: d["kappa"].pop("value"))
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: scenario diag-ordinary, stage load: field kappa.value: missing\n"


@pytest.mark.parametrize(
    "name,edit,field",
    [
        ("diag-ordinary", lambda d: d["ring"].update(p="five"), "'ring.p' must be an integer, got 'five'"),
        ("diag-ordinary", lambda d: d["kappa"].update(gen=[1]), "'kappa.gen' must be an integer, got [1]"),
        ("plane-tower-r2", lambda d: d["dvr"].update(trunc=None), "'dvr.trunc' must be an integer, got None"),
        ("diag-ordinary", lambda d: d["group"].update(dp=5), "'group.dp' must be a list, got 5"),
        ("diag-ordinary", lambda d: d.update(ring=[1]), "'ring' must be an object, got [1]"),
        ("diag-ordinary", lambda d: d.update(kappa="x"), "'kappa' must be an object or null, got 'x'"),
        ("diag-ordinary", lambda d: d["psrep"].update(chi1=None), "'psrep.chi1' must be an object, got None"),
        ("diag-ordinary", lambda d: d.update(seed=True), "'seed' must be an integer, got True"),
        ("diag-ordinary", lambda d: d.update(budget=True), "'budget' must be an integer, got True"),
        ("plane-tower-r2", lambda d: d["h"].update(label=5), "'h.label' must be a string, got 5"),
        ("plane-tower-r2", lambda d: d["h"].update(label=[1]), "'h.label' must be a string, got [1]"),
    ],
)
def test_wrong_type_scenario_field_is_input_error(tmp_path, capsys, name, edit, field):
    """Each case names the field, quoted, and what it must be.  The field is
    read when the scenario loads, but for h's own fields, which are read
    when the tower is built."""
    path, reason = re.fullmatch(r"'([^']+)' (.+)", field).groups()
    stage = "build" if path.startswith("h.") else "load"
    file = _bundled_variant(tmp_path, name, edit)
    assert cli.main(["pipeline", file]) == 2
    assert capsys.readouterr().err == f"error: scenario {name}, stage {stage}: field {path}: {reason}\n"


def test_field_errors_name_the_scenario_once(tmp_path, capsys):
    """A field reader writes only the field and the reason; the scenario
    and the stage lead it once, as for every other refusal."""
    path = _bundled_variant(tmp_path, "diag-ordinary", lambda d: d["ring"].update(p="five"))
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: scenario diag-ordinary, stage load: field ring.p: must be an integer, got 'five'\n"
    assert err.count("diag-ordinary") == 1


@pytest.mark.parametrize("stages", [["validate"], ["gma"], ["ordinary"]])
def test_spec_objects_are_refused_at_load_whatever_the_stages(tmp_path, capsys, stages):
    """Ring, group, psrep and kappa are built when the scenario's state is
    made, so a bad ring is refused at stage load under any stage list."""
    path = _bundled_variant(tmp_path, "diag-ordinary", lambda d: (d.update(stages=stages), d["ring"].update(p="five")))
    assert cli.main(["pipeline", path]) == 2
    assert capsys.readouterr().err == (
        "error: scenario diag-ordinary, stage load: field ring.p: must be an integer, got 'five'\n")


@pytest.mark.parametrize("name", ["../escaped", "a/b", ""])
def test_scenario_names_are_file_stems(tmp_path, capsys, name):
    """A report is written to OUT/<name>.json, so a name that is not a file
    stem is refused at load, by the file it came from, and nothing is
    written."""
    doc = dict(scenarios.BUILTIN["diag-ordinary"], name=name)
    (tmp_path / "in").mkdir()
    path = tmp_path / "in" / "s.json"
    path.write_text(serialize.canonical_json(doc))
    assert cli.main(["pipeline", str(path), "--out", str(tmp_path / "out" / "deeper")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario {path}, stage load: field name: must be a file stem: ")
    assert _REFUSAL.fullmatch(err[:-1]) and err.endswith(f", got {name!r}\n") and err.count("\n") == 1
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["in", "in/s.json"]


def test_out_of_range_marks_are_input_error(tmp_path, capsys):
    path = _bundled_variant(tmp_path, "diag-ordinary", lambda d: d["group"].update(dp=[0, 9]))
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "marks dp must be group elements in range(4), got [0, 9]" in err


# one value of each JSON type, and the values a field most often gets
# wrong: a float, a magnitude past int64, a sign, a nested object and list
_MUTANTS = ("x", 1, [], {}, None, True, 1.5, 10**30, -1, {"kind": {"p": [5]}}, [[0, 1], {"kind": "zmod"}])
_DELETE = "<delete the field>"
_FUZZ_SEED = 3535  # a corpus seed that no golden and no recorded decision uses
# the one format of every exit-2 and exit-3 line
_REFUSAL = re.compile(r"(error|budget exceeded): scenario [^,]+, stage [a-z]+: (field [^ :]+: )?.+")


def _field_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _field_paths(val, prefix + (key,))


@functools.cache
def _fuzz_documents() -> tuple:
    """The bundled documents and two generated units of each family, as JSON text."""
    with tempfile.TemporaryDirectory() as d:
        scenarios.generate_corpus(seed=_FUZZ_SEED, count=16, out_dir=d)
        generated = [p.read_text() for p in sorted(Path(d).glob(f"gen{_FUZZ_SEED}-*.json"))]
    return tuple(serialize.canonical_json(doc) for _, doc in sorted(scenarios.BUILTIN.items())) + tuple(generated)


@st.composite
def _mutated_documents(draw) -> dict:
    """A fuzz document with one or two fields replaced or deleted."""
    doc = json.loads(draw(st.sampled_from(_fuzz_documents())))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_field_paths(doc))))
        value = draw(st.sampled_from((*_MUTANTS, _DELETE)))
        parent = _at(doc, path[:-1])
        if value == _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(value))
    return doc


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
def test_type_mutated_bundled_scenario_exits_cleanly(doc):
    """A bundled or generated scenario with one or two fields replaced or
    deleted ends in exit 0 with a silent stderr and its report in OUT, or
    in exit 2 or 3 with one line in the refusal format and nothing written;
    nothing raises out of `cli.main`."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        (root / "in").mkdir()
        (root / "in" / "s.json").write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["pipeline", str(root / "in" / "s.json"), "--out", str(root / "out")])
        written = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    text = err.getvalue()
    assert code in (0, 2, 3), text
    if code == 0:
        assert text == "" and written == ["in/s.json", f"out/{doc['name']}.json"]
    else:
        assert _REFUSAL.fullmatch(text[:-1]) and text.count("\n") == 1 and text.endswith("\n"), text
        assert written == ["in/s.json"]


# integer values from sign errors to magnitudes past int64; every integer
# field of every bundled scenario takes each of them in turn
_INT_VALUES = (-2, -1, 0, 1, 2, 9, 10**30)


def _int_field_paths(doc, prefix=()):
    return [path for path in _field_paths(doc, prefix) if type(_at(doc, path)) is int]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _run_quietly(doc) -> tuple:
    """(exit code, stderr) of `exalg pipeline` on the scenario `doc`."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        scenario = Path(d) / f"{doc['name']}.json"
        scenario.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["pipeline", str(scenario)])
    return code, err.getvalue()


def test_value_mutated_bundled_scenario_exits_cleanly():
    """Every (integer field, value) mutation ends with exit 0 and a silent
    stderr, or exit 2 or 3 and one line in the refusal format, never a
    traceback; the whole sweep stays under 10 s."""
    start, bad = time.perf_counter(), []
    for name in sorted(scenarios.BUILTIN):
        for path in _int_field_paths(scenarios.BUILTIN[name]):
            for value in _INT_VALUES:
                doc = json.loads(json.dumps(scenarios.BUILTIN[name]))
                _at(doc, path[:-1])[path[-1]] = value
                try:
                    code, text = _run_quietly(doc)
                except Exception as e:  # a traceback at the command line
                    bad.append((name, path, value, repr(e)))
                    continue
                clean = text == "" if code == 0 else (
                    code in (2, 3) and _REFUSAL.fullmatch(text[:-1]) and text.count("\n") == 1
                )
                if not clean:
                    bad.append((name, path, value, code, text))
    assert bad == []
    assert time.perf_counter() - start <= 10


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("s3-irreducible", lambda d: d["ring"].update(e=0), "residue degree must be a positive integer, got 0"),
        ("plane-tower-r2", lambda d: d["dvr"].update(e=-1), "residue degree must be a positive integer, got -1"),
        (
            "diag-ordinary",
            lambda d: d.update(ring={"kind": "poly", "base": {"kind": "zmod", "p": 5}, "trunc": 0}),
            "truncation order must be a positive integer, got 0",
        ),
        (
            "diag-ordinary",
            lambda d: d.update(ring={"kind": "poly", "base": {"kind": "zmod", "p": 5}, "trunc": -1}),
            "truncation order must be a positive integer, got -1",
        ),
        ("diag-ordinary", lambda d: d["kappa"].update(gen=4), "character generator 4 is not a group element in range(4)"),
        ("diag-ordinary", lambda d: d["kappa"].update(gen=-1), "character generator -1 is not a group element in range(4)"),
        (
            "diag-ordinary",
            lambda d: d.update(group={"kind": "cyclic", "n": 1, "dp": [0], "ip": [0]}),
            "character generator 1 is not a group element in range(1)",
        ),
        ("diag-ordinary", lambda d: d["kappa"].update(value=10**30), "value order does not divide the generator order"),
        ("diag-ordinary", lambda d: d["group"].update(n=10**6), "group order 1000000 exceeds the supported maximum"),
    ],
)
def test_out_of_range_scenario_values_are_input_errors(tmp_path, capsys, name, edit, message):
    path = _bundled_variant(tmp_path, name, edit)
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    def broken(st):
        return {}["not-a-scenario-field"]

    monkeypatch.setitem(scenarios._STAGES["psrep"], "validate", broken)
    with pytest.raises(KeyError):
        cli.main(["pipeline", "diag-ordinary"])


def test_relabelled_plane_tower_keeps_the_rank_two_model():
    doc = {
        "name": "plane-relabel", "kind": "tower", "seed": 0, "budget": 200000,
        "dvr": {"p": 3, "e": 1, "trunc": 12}, "r": 1,
        "h": {"kind": "plane", "label": "axes-relabel"},
        "stages": ["build", "criterion"],
    }
    rep = scenarios.run_scenario(scenarios.load_scenario(doc))
    assert rep.stages["build"]["label"] == "axes-relabel"
    assert rep.stages["criterion"]["model"] == "rank2"
    plain = dict(doc, h={"kind": "plane"})
    assert rep.stages["criterion"] == scenarios.run_scenario(scenarios.load_scenario(plain)).stages["criterion"]


def test_tower_only_commands_reject_psrep_scenarios(capsys):
    assert cli.main(["audit", "diag-ordinary"]) == 2
    assert "applies to tower scenarios" in capsys.readouterr().err
    assert cli.main(["criterion", "s3-irreducible"]) == 2


def test_budget_exhaustion_exit_code(capsys):
    assert cli.main(["pipeline", "diag-ordinary", "--budget", "1"]) == 3
    assert "budget exceeded:" in capsys.readouterr().err


def test_reducibility_stage_spends_the_scenario_budget(tmp_path, capsys):
    """diag-ordinary over Z/5^8 with Teichmuller lifts: the split certificate
    enumerates the 5^8-element base, within --budget 10^6 but not 2 * 10^5."""
    def lifts(d):
        d["ring"].update(k=8)
        d["psrep"]["chi1"].update(value=280182)
        d["kappa"].update(value=110443)

    path = _bundled_variant(tmp_path, "diag-ordinary", lifts)
    assert cli.main(["pipeline", path, "--budget", "1000000"]) == 0
    capsys.readouterr()
    assert cli.main(["pipeline", path]) == 3
    err = capsys.readouterr().err
    assert err == ("budget exceeded: scenario diag-ordinary, stage reducibility: "
                   "ring has 390625 elements, limit 200000\n")


@pytest.mark.parametrize("group,code", [
    ({"kind": "cyclic", "n": 6, "dp": [0, 2, 4], "ip": [0, 2, 4]}, 2),
    ({"kind": "dihedral", "n": 3, "dp": [0, 1, 2], "ip": [0, 1, 2]}, 0),
])
def test_s3_standard_needs_the_table_of_s3(tmp_path, capsys, group, code):
    """s3_standard writes (t, d) on the elements of S3, so a group of order 6
    with another table is bad input; D3 has the table of S3."""
    path = _bundled_variant(tmp_path, "s3-irreducible", lambda d: d.update(group=group))
    assert cli.main(["pipeline", path]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   "error: scenario s3-irreducible, stage load: s3_standard needs the symmetric group on 3 letters\n")


def test_triangular_psrep_needs_characters_on_the_whole_group(tmp_path, capsys):
    def on_rotations(d):
        d["group"] = {"kind": "dihedral", "n": 2, "dp": [0, 1, 2, 3], "ip": [0, 1]}
        d["psrep"].update(kind="triangular", chi1={"kind": "power", "gen": 1, "value": 4})
        d["kappa"] = {"kind": "trivial"}

    path = _bundled_variant(tmp_path, "diag-ordinary", on_rotations)
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: scenario diag-ordinary, stage load: characters must be defined on the whole group\n"


def test_stage_errors_name_the_scenario_and_the_stage(capsys):
    with pytest.raises(BudgetExceeded, match=r"^scenario diag-ordinary, stage gma: ring has 25 elements"):
        scenarios.run_scenario(scenarios.load_scenario("diag-ordinary", budget=1))
    no_kappa = dict(scenarios.BUILTIN["diag-ordinary"], kappa=None)
    with pytest.raises(InputError, match=r"^scenario diag-ordinary, stage ordinary: stage 'ordinary' needs"):
        scenarios.run_scenario(scenarios.load_scenario(no_kappa))
    assert cli.main(["pipeline", "diag-ordinary", "--budget", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: scenario diag-ordinary, stage gma: ") and err.count("\n") == 1


def test_invariant_failure_exit_code(monkeypatch, capsys):
    def boom(sc):
        raise InvariantViolation("forced for the exit-code contract")

    monkeypatch.setattr(scenarios, "run_scenario", boom)
    assert cli.main(["pipeline", "diag-ordinary"]) == 1
    assert "invariant failure:" in capsys.readouterr().err


def test_bad_verdict_maps_to_exit_one(monkeypatch, capsys):
    real = scenarios.run_scenario

    def downgrade(sc):
        rep = real(dataclasses.replace(sc, stages=("validate",)))
        rep.verdict = "invariant-failure"
        return rep

    monkeypatch.setattr(scenarios, "run_scenario", downgrade)
    assert cli.main(["pipeline", "diag-ordinary"]) == 1
    capsys.readouterr()


def test_out_directory_receives_reports(tmp_path, capsys):
    assert cli.main(["pipeline", "diag-ordinary", "--out", str(tmp_path)]) == 0
    msg = capsys.readouterr().out
    assert "diag-ordinary: ok ->" in msg
    written = json.loads((tmp_path / "diag-ordinary.json").read_text())
    assert written["verdict"] == "ok"
    assert cli.main(
        ["validate", "diag-ordinary", "--format", "text", "--out", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    text = (tmp_path / "diag-ordinary.txt").read_text()
    assert text.startswith("scenario diag-ordinary  verdict ok")


def test_text_format_renders_stages(capsys):
    assert cli.main(["validate", "diag-ordinary", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "[validate]" in out and "ok: true" in out


def test_condition_table_renderer():
    rows = [
        {"label": "a", "r": 1, "principal_nzd": True, "both_principal": True,
         "embdim_two": False, "both_gorenstein": None, "multiplicity_one": True,
         "eisenstein_colength": 3, "complete_intersection": False},
    ]
    table = cli._render_condition_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("label")
    assert "yes" in lines[2] and "no" in lines[2] and "-" in lines[2] and "3" in lines[2]


# ---- corpus ----------------------------------------------------------


def test_corpus_zero_count_empty_manifest(tmp_path):
    manifest = scenarios.generate_corpus(seed=4, count=0, out_dir=tmp_path)
    assert manifest["files"] == [] and manifest["count"] == 0
    assert manifest["digest"] == serialize.sha256_text("")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_corpus_is_reproducible(tmp_path):
    a = scenarios.generate_corpus(seed=0, count=16, out_dir=tmp_path / "a")
    b = scenarios.generate_corpus(seed=0, count=16, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").read_text() == (
        tmp_path / "b" / "manifest.json"
    ).read_text()
    assert a["digest"] == b["digest"]
    names = [f["name"] for f in a["files"]]
    assert len(set(names)) == 16
    for f in a["files"]:
        text = (tmp_path / "a" / f"{f['name']}.json").read_text()
        assert serialize.sha256_text(text) == f["sha256"]
        assert serialize.parse_scenario_text(text)["name"] == f["name"]


def test_corpus_seeds_never_collide(tmp_path):
    a = scenarios.generate_corpus(seed=0, count=8, out_dir=tmp_path / "a")
    b = scenarios.generate_corpus(seed=1, count=8, out_dir=tmp_path / "b")
    assert not {f["name"] for f in a["files"]} & {f["name"] for f in b["files"]}
    assert a["digest"] != b["digest"]


def test_corpus_cli_needs_out(capsys, tmp_path):
    assert cli.main(["corpus", "--count", "2"]) == 2
    assert "corpus needs --out" in capsys.readouterr().err
    assert cli.main(["corpus", "--count", "2", "--out", str(tmp_path)]) == 0
    assert "2 scenarios ->" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["-3", "0"])
def test_corpus_refuses_a_budget_below_one(tmp_path, capsys, budget):
    """A budget the loader would refuse is refused before any file is written."""
    out = tmp_path / "corpus"
    assert cli.main(["corpus", "--count", "2", "--out", str(out), "--budget", budget]) == 2
    err = capsys.readouterr().err
    assert err == f"error: corpus budget must be positive, got {budget}\n"
    assert not out.exists()
    with pytest.raises(InputError, match="corpus budget must be positive"):
        scenarios.generate_corpus(seed=0, count=1, out_dir=out, budget=int(budget))
    assert cli.main(["corpus", "--count", "2", "--out", str(out), "--budget", "1"]) == 0
    assert all(json.loads(f.read_text())["budget"] == 1 for f in out.glob("gen0-*.json"))


def test_group_algebra_past_the_bound_exits_two(tmp_path, capsys):
    """C13 over F5[x]/(x^5) has a group algebra of dimension 65, one past
    the bound: the ch stage refuses it with exit 2 instead of building
    its 65^3 table."""
    path = _bundled_variant(tmp_path, "diag-ordinary", lambda d: d.update(
        ring={"kind": "poly", "base": {"kind": "zmod", "p": 5}, "trunc": 5},
        group={"kind": "cyclic", "n": 13, "dp": list(range(13)), "ip": [0]},
        psrep={"kind": "char_pair", "chi1": {"kind": "trivial"}, "chi2": {"kind": "trivial"}},
        kappa={"kind": "trivial"},
    ))
    assert cli.main(["pipeline", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario diag-ordinary, stage ch:") and "= 65 exceeds 64" in err


def _axes_body(family: str, s: int) -> dict:
    body = scenarios._tower_body(random.Random(0), family)
    body["h"]["s"] = s
    return {"schema": serialize.SCENARIO_SCHEMA, "name": f"{family}-s", "seed": 0, "budget": 200000, **body}


@pytest.mark.parametrize("family", ["tower-axes2", "tower-axes3"])
@pytest.mark.parametrize("s", [11, 25, 10**30])
def test_oversized_axes_towers_exit_two_before_allocating(family, s):
    """h.s past the axes bound is refused before the s*dim table exists."""
    start = time.perf_counter()
    code, err = _run_quietly(_axes_body(family, s))
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: scenario") and "h.s" in err and "exceeds" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("j", [-1, 0, 1, 3, 12, 16])
def test_torsion_h_levels_exit_two(j):
    """A "mod" h-level base/t^j is torsion for every j >= 1, so it is
    refused as not free, and j < 1 is refused by name: exit 2, one line."""
    doc = json.loads(json.dumps(scenarios.BUILTIN["plane-tower-r2"]))
    doc["dvr"]["trunc"], doc["h"] = 12, {"kind": "mod", "j": j}
    code, err = _run_quietly(doc)
    assert code == 2 and err.count("\n") == 1
    assert ("h.j must be >= 1" if j < 1 else "algebra is not free over the base") in err


@pytest.mark.parametrize("kind,field,value,rule", [
    ("branch", "m", 0, "branch meeting order h.m must be >= 1"),
    ("branch", "m", -3, "branch meeting order h.m must be >= 1"),
    ("axes", "s", 0, "axis count h.s must be >= 2"),
    ("axes", "s", 1, "axis count h.s must be >= 2"),
])
def test_small_branch_and_axes_h_levels_name_their_field(kind, field, value, rule):
    """A branch meeting order below 1 and an axis count below 2 are refused
    with the field and its value named, as h.j is: exit 2, one line."""
    doc = json.loads(json.dumps(scenarios.BUILTIN["plane-tower-r2"]))
    doc["h"] = {"kind": kind, field: value}
    assert _run_quietly(doc) == (2, f"error: scenario plane-tower-r2, stage build: {rule}, got {value}\n")


def test_axes_tower_past_the_minor_budget_exits_three():
    """h.s = 5 over F5 at trunc 12 passes the axes bound, and the replay
    refuses its relation module by minor count: exit 3, one stderr line."""
    code, err = _run_quietly(_axes_body("tower-axes2", 5))
    assert code == 3
    assert err == "budget exceeded: scenario tower-axes2-s, stage replay: minor count 20349 exceeds budget 20000\n"


# One child process runs the whole sweep below with its address space
# capped, so a run that would exhaust memory raises there, not in pytest.
_SWEEP_CHILD = """
import contextlib, io, json, random, resource, sys, tempfile, time
from pathlib import Path

resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from exalg import cli, scenarios, serialize

runs = []
for family in ("tower-plane", "tower-branch", "tower-axes2", "tower-axes3"):
    body = scenarios._tower_body(random.Random(0), family)
    fields = [("dvr", "trunc"), ("dvr", "p"), ("dvr", "e"), (None, "r")] + [("h", f) for f in ("m", "s") if f in body["h"]]
    for where, field in fields:
        for value in (0, 1, 5, 8, 11, 25, 10**30):
            doc = {"schema": serialize.SCENARIO_SCHEMA, "name": family, "seed": 0, "budget": 200000,
                   **json.loads(json.dumps(body))}
            (doc[where] if where else doc)[field] = value
            err, start = io.StringIO(), time.perf_counter()
            with tempfile.TemporaryDirectory() as d:
                path = Path(d) / f"{family}.json"
                path.write_text(json.dumps(doc))
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = cli.main(["pipeline", str(path)])
                except Exception as e:  # a traceback at the command line, MemoryError included
                    code, err = None, io.StringIO(repr(e))
            runs.append([family, f"{where}.{field}" if where else field, str(value), code, err.getvalue(),
                         time.perf_counter() - start])
print(json.dumps(runs))
"""


def test_tower_field_sweep_exits_cleanly_under_a_memory_cap():
    """dvr.trunc, dvr.p, dvr.e, r and h.m or h.s of each generated tower
    family, set in turn to each of (0, 1, 5, 8, 11, 25, 10**30): 133
    pipeline runs in a child capped at 3 GB of address space.  Each ends in
    exit 0 with a silent stderr, or in exit 2 or 3 with one stderr line,
    in the refusal format, within 2 s; none raises."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    runs = json.loads(proc.stdout)

    def clean(code, err, seconds) -> bool:
        if code == 0:
            return err == "" and seconds < 2
        return code in (2, 3) and _REFUSAL.fullmatch(err[:-1]) and err.count("\n") == 1 and seconds < 2

    assert len(runs) == 133
    assert [run for run in runs if not clean(*run[3:])] == []
    assert {run[3] for run in runs} == {0, 2, 3}


def test_oversized_branch_algebra_exits_two(tmp_path, capsys):
    """A branch tower over t^65 would need a 130-dimensional algebra."""
    path = _bundled_variant(tmp_path, "plane-tower-r2", lambda d: (
        d["dvr"].update(trunc=65), d.update(h={"kind": "branch", "m": 2})
    ))
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "= 130 exceeds the supported maximum 128" in err


def test_two_in_process_runs_give_the_same_bytes(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    outs = []
    for _ in range(2):
        assert cli.main(["pipeline", "diag-ordinary", "plane-tower-r2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0]


def test_generated_scenarios_actually_run(tmp_path):
    scenarios.generate_corpus(seed=2, count=4, out_dir=tmp_path)
    for path in sorted(tmp_path.glob("gen2-*.json")):
        sc = scenarios.load_scenario(path)
        stages = ("validate",) if sc.kind == "psrep" else ("build",)
        rep = scenarios.run_scenario(dataclasses.replace(sc, stages=stages))
        assert rep.verdict == "ok", path.name


# ---- one residual per algebra ---------------------------------------


@pytest.mark.parametrize("name", ["diag-ordinary", "s3-irreducible"])
def test_bundled_psrep_scenario_splits_its_residual_once(name, monkeypatch):
    calls, original = [], psrep.residual_split

    def counted(psr):
        calls.append(psr.name)
        return original(psr)

    # every binding of residual_split in the package goes through the counter
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("exalg") and getattr(mod, "residual_split", None) is original:
            monkeypatch.setattr(mod, "residual_split", counted)
    scenarios.run_scenario(scenarios.load_scenario(name))
    assert len(calls) == 1


def test_ordinary_stage_decision_matches_the_psrep_entry_point(tmp_path):
    """The stage decides on the scenario's own ChAlgebra; a fresh decision
    from the bare pseudorepresentation must agree."""
    scenarios.generate_corpus(seed=1, count=16, out_dir=tmp_path)
    decided = 0
    for source in ["diag-ordinary", "s3-irreducible", *sorted(tmp_path.glob("gen1-*.json"))]:
        sc = scenarios.load_scenario(source)
        if sc.kind != "psrep":
            continue
        stage = scenarios.run_scenario(sc).stages["ordinary"]
        st = scenarios._State(sc)
        fresh = oracles.is_ordinary_psrep(st.psr, st.kappa, budget=sc.budget)
        assert (stage["psrep_supported"], stage["psrep_ordinary"]) == (fresh["supported"], fresh["ordinary"]), sc.name
        decided += 1
    assert decided == 10


# ---- stage timing in the text format, never in the JSON ---------------


def _golden_bodies(monkeypatch):
    """The benchmark's body key and content digest helpers, and its golden
    digests, recorded before the text format printed any timing."""
    import importlib.util

    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_cli", perfbench / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod, json.loads((perfbench / "data" / "goldens.json").read_text())["bodies"]


def test_text_format_prints_stage_timing_and_json_bytes_stay_the_same(capsys, monkeypatch):
    wl, bodies = _golden_bodies(monkeypatch)
    for name, doc in sorted(scenarios.BUILTIN.items()):
        assert cli.main(["pipeline", name]) == 0
        raw = capsys.readouterr().out
        assert "timing" not in json.loads(raw)
        assert wl.content_digest(raw.encode()) == bodies[wl.body_key(doc)][0], name
        assert cli.main(["pipeline", name, "--format", "text"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split()
        assert last[0] == "timing" and last[1::2] == list(doc["stages"])
        assert all(v.endswith("s") and float(v[:-1]) >= 0 for v in last[2::2])


def test_corpus_condition_table_ends_with_audit_timing(capsys, monkeypatch):
    small = [towers.build_eisenstein_tower(towers.DvrModel(5, 1, 8), 1, {"kind": "plane"})]
    monkeypatch.setattr(towers, "tower_corpus", lambda: small)
    assert cli.main(["audit", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("label") and lines[-1].startswith("timing audit ")
    assert cli.main(["audit"]) == 0
    assert "timing" not in json.loads(capsys.readouterr().out)
