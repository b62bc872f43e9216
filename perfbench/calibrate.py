"""Regenerate perfbench/data/goldens.json from the program as it stands.

    python3 perfbench/calibrate.py

Run it only at a commit whose report bytes are known to be right: it
records, for every unit any workload can draw,

- the golden digest of its report (each of the 23 towers; every
  distinct generated scenario body reachable from corpus seeds
  0 .. SEEDS-1, plus the bundled scenarios);
- its reference wall time through `run_scenario` (or, for a tower, the
  tower-corpus unit), the median over timed passes.  run.py uses these
  only as fixed weights, to scale the units one time-boxed run completes
  to one pass over the shipped-seed corpus;
- the full report digests of the shipped seed's psrep-corpus and
  scenario-mix units.

Changing the file changes the benchmark; measure the baseline again
after it.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 3000  # corpus seeds to enumerate scenario bodies from
PASSES = 2  # timed passes over the psrep bodies
TOWER_PASSES = 5  # timed passes over the towers and the tower bodies


def _reference(runner, units, passes: int) -> dict:
    """unit key -> (median wall over `passes` shuffled passes, report bytes).

    Passes rather than back-to-back repeats, so that a slow spell of the
    machine weighs on every unit alike.
    """
    walls: dict = {u.key: [] for u in units}
    reports: dict = {}
    for p in range(passes):
        order = list(units)
        random.Random(p).shuffle(order)
        for u in order:
            res = runner(u)
            if res.error is not None or res.report is None:
                raise SystemExit(f"{u.name}: {res.error}")
            if reports.setdefault(u.key, res.report) != res.report:
                raise SystemExit(f"{u.name}: report bytes differ between runs")
            walls[u.key].append(res.wall)
        print(f"  pass {p + 1}/{passes} over {len(units)} units done", flush=True)
    return {k: (statistics.median(w), reports[k]) for k, w in walls.items()}


def _enumerate_bodies(n_seeds: int, tmp: Path) -> dict:
    """body key -> (family, scenario document) over corpus seeds 0 .. n_seeds-1."""
    from exalg import scenarios

    import workloads as wl

    bodies: dict = {}
    for seed in range(n_seeds):
        for u in wl.generated_units(seed, wl.PSREP_CORPUS_COUNT, tmp / "enum", wl.ALL_FAMILIES):
            if u.key not in bodies:
                bodies[u.key] = (u.family, json.loads(u.payload.read_text()))
    for name, doc in scenarios.BUILTIN.items():
        bodies[wl.body_key(doc)] = ("bundled", dict(doc))
    return bodies


def _dump(out: dict) -> str:
    """JSON with one table entry per line, so a changed golden shows as one line."""
    def compact(v):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))

    parts = []
    for key, val in sorted(out.items()):
        if isinstance(val, dict) and key in ("towers", "bodies", "workloads"):
            rows = ",\n".join(f"  {compact(k)}:{compact(v)}" for k, v in sorted(val.items()))
            parts.append(f" {compact(key)}:{{\n{rows}\n }}")
        else:
            parts.append(f" {compact(key)}:{compact(val)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from exalg import scenarios

    import workloads as wl

    started = time.perf_counter()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmpdir:
        tmp = Path(tmpdir)
        towers = wl.TowerCorpus(wl.SHIPPED_SEED, tmp)
        ref = _reference(towers.run_unit, towers.units, TOWER_PASSES)
        tower_table = {k: [wl.sha256(report), round(wall, 4)] for k, (wall, report) in ref.items()}

        bodies = _enumerate_bodies(SEEDS, tmp)
        print(f"{len(bodies)} distinct scenario bodies", flush=True)

        def run_body(unit):
            t0 = time.perf_counter()
            text = scenarios.run_scenario(unit.payload).canonical()
            return wl.UnitResult(time.perf_counter() - t0, text.encode())

        units = [wl.Unit(key, key, family, scenarios.load_scenario(doc)) for key, (family, doc) in bodies.items()]
        psrep_units = [u for u in units if u.family in wl.PSREP_FAMILIES]
        other_units = [u for u in units if u.family not in wl.PSREP_FAMILIES]
        ref = _reference(run_body, other_units, TOWER_PASSES)
        ref.update(_reference(run_body, psrep_units, PASSES))
        body_table = {k: [wl.content_digest(report), round(wall, 5)] for k, (wall, report) in ref.items()}
        by_family: dict = {}
        for u in units:
            by_family.setdefault(u.family, []).append(ref[u.key][0])
        family_ref = {f: round(statistics.median(w), 5) for f, w in sorted(by_family.items())}
        family_ref["tower"] = round(statistics.median(v[1] for v in tower_table.values()), 4)

        workloads_out = {
            "tower-corpus": {
                "seed": wl.SHIPPED_SEED,
                "shipped": {},
                "pass_ref_s": round(sum(v[1] for v in tower_table.values()), 4),
                "unit_ref_s": family_ref["tower"],
            }
        }
        for cls in (wl.PsrepCorpus, wl.ScenarioMix):
            w = cls(wl.SHIPPED_SEED, tmp / cls.name)
            shipped = {}
            for u in w.units:
                res = w.run_unit(u)
                if res.error is not None:
                    raise SystemExit(f"{u.name}: {res.error}")
                if body_table[u.key][0] != wl.content_digest(res.report):
                    raise SystemExit(f"{u.name}: report differs from its body golden")
                shipped[u.name] = wl.sha256(res.report)
            refs = [body_table[u.key][1] for u in w.units]
            workloads_out[cls.name] = {
                "seed": wl.SHIPPED_SEED,
                "shipped": shipped,
                "pass_ref_s": round(sum(refs), 4),
                "unit_ref_s": round(statistics.median(refs), 5),
            }

    out = {
        "note": "written by perfbench/calibrate.py; reference times are weights, not results",
        "enumerated_seeds": SEEDS,
        "family_ref_s": family_ref,
        "workloads": workloads_out,
        "towers": tower_table,
        "bodies": body_table,
    }
    (HERE / "data").mkdir(exist_ok=True)
    (HERE / "data" / "goldens.json").write_text(_dump(out))
    print(f"wrote goldens for {len(tower_table)} towers and {len(body_table)} bodies "
          f"in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
