"""Tests of the benchmark itself (not part of the repository's Tier-1 suite).

    python3 -m pytest -q perfbench/tests

Traced checks run in a child process, so that wrapping the package does
not leak into other tests.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# three small towers for the traced checks, run in two orders
SMALL_TOWERS = ("plane-F7-r2", "plane-F5-r3", "plane-F3-r1")


def _child(code: str) -> dict:
    """Run code in a fresh interpreter; it prints one JSON object last."""
    prelude = f"import sys, json\nsys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
    out = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                         capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


TRACED_TOWERS = """
    import random
    import tracer, workloads
    wl = workloads.setup("tower-corpus", 1, None)
    goldens = workloads.load_goldens("tower-corpus", 1)
    wl.units = [u for u in wl.units if u.name in {names!r}]
    random.Random({order}).shuffle(wl.units)
    tr = None
    if {traced}:
        tr = tracer.Tracer()
        tracer.install(tr)
    reports, walls = {{}}, []
    for u in wl.units:
        if tr is not None:
            tr.start_unit()
        res = wl.run_unit(u)
        reports[u.name] = [workloads.sha256(res.report), goldens.check(u, res.report)]
        walls.append(res.wall)
    out = {{"reports": reports, "walls": walls, "order": [u.name for u in wl.units]}}
    if tr is not None:
        m = tr.layer_metrics()
        out["metrics"] = {{k: v for k, v in m.items() if not k.endswith("self_s")}}
        out["self_s"] = m["_self_s"]
        out["unit_self_s"] = m["_unit_self_s"]
    print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def traced_runs():
    runs = [_child(TRACED_TOWERS.format(names=SMALL_TOWERS, order=o, traced=True)) for o in (0, 0, 2)]
    plain = _child(TRACED_TOWERS.format(names=SMALL_TOWERS, order=0, traced=False))
    return runs, plain


def test_work_counters_repeat_exactly(traced_runs):
    runs, _ = traced_runs
    first = runs[0]["metrics"]
    for key in ("linalg.cells", "linalg.solve_left.reuse", "rings.Ideal.mul_ideal.cells", "modules.ring_det.terms"):
        assert first[key] > 0, key
    # a second run, and a run with the towers in another order
    assert runs[2]["order"] != runs[0]["order"]
    assert runs[1]["metrics"] == first
    assert runs[2]["metrics"] == first


def test_traced_digests_equal_untraced(traced_runs):
    runs, plain = traced_runs
    for r in runs:
        assert r["reports"] == plain["reports"]  # dicts: equal whatever the order
    assert all(status == "ok" for _, status in plain["reports"].values())


def test_self_time_within_traced_wall(traced_runs):
    runs, _ = traced_runs
    for r in runs:
        assert len(r["unit_self_s"]) == len(r["walls"])
        assert all(0 < own <= wall for own, wall in zip(r["unit_self_s"], r["walls"]))
        assert r["self_s"] <= sum(r["walls"])


def test_every_namespace_holds_the_wrapper():
    out = _child("""
        import tracer
        from exalg import algebras, errors, rings, towers, modules
        tr = tracer.Tracer()
        tracer.install(tr)
        ring = rings.zmod_ring(5, 1)
        alg = algebras.matrix_algebra(ring, 2)
        try:
            alg._local_data
            override = False
        except errors.InputError:
            override = True
        print(json.dumps({
            "unwrapped": tracer.unwrapped_references(tr),
            "fiber_product": towers.fiber_product is rings.fiber_product and id(towers.fiber_product) in tr.originals,
            "ring_det": towers.ring_det is modules.ring_det and id(modules.ring_det) in tr.originals,
            "local_data": id(vars(rings.FiniteRing)["_local_data"].func) in tr.originals,
            "override": override,
        }))
    """)
    assert out == {"unwrapped": [], "fiber_product": True, "ring_det": True, "local_data": True, "override": True}


def _tower_report():
    wl = workloads.TowerCorpus(1, None)
    unit = next(u for u in wl.units if u.name == "plane-F7-r2")
    return unit, wl.run_unit(unit).report


def _flip(report: bytes) -> bytes:
    """The report with one digit changed."""
    i = max(i for i, b in enumerate(report) if chr(b).isdigit())
    return report[:i] + str((int(chr(report[i])) + 1) % 10).encode() + report[i + 1:]


def test_one_byte_change_to_a_tower_report_is_caught():
    goldens = workloads.load_goldens("tower-corpus", 1)
    unit, report = _tower_report()
    assert goldens.check(unit, report) == "ok"
    assert goldens.check(unit, _flip(report)) == "mismatch"


@pytest.mark.parametrize("seed", [workloads.SHIPPED_SEED, 7])
def test_one_byte_change_to_a_scenario_report_is_caught(seed, tmp_path):
    wl = workloads.setup("psrep-corpus", seed, tmp_path)
    goldens = workloads.load_goldens("psrep-corpus", seed)
    unit = min(wl.units, key=goldens.ref)
    report = wl.run_unit(unit).report
    assert goldens.check(unit, report) == "ok"
    assert goldens.check(unit, _flip(report)) == "mismatch"
    # a single byte outside any value is caught through the full digest of the shipped seed
    spaced = report.replace(b",", b", ", 1)
    assert goldens.check(unit, spaced) == ("mismatch" if seed == workloads.SHIPPED_SEED else "ok")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_result_line(tmp_path):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "psrep-corpus", "--seed", "3",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tower-corpus", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
