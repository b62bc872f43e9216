"""Benchmark of the exalg engine: one workload per process, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
`src/`.  The load is a closed loop with one caller: one unit (a tower
or a scenario) after another, in the seed's order, as the engine is used.

--trace 0 runs one whole pass over the workload, then goes on cycling
through it until --seconds have passed, and prints the end-to-end
metrics.  A tower-corpus pass (about 50 s) outlasts --seconds, so each
of its runs covers every tower exactly once.  The per-unit walls are scaled to one
pass over the shipped-seed corpus with the reference unit costs of
perfbench/data/goldens.json, so runs that complete different units, or
whose seed generated different scenarios, measure the same quantity.

--trace 1 wraps the public functions of the traced layers (see
tracer.py), runs exactly one pass over the workload so that the work
counters repeat exactly, and prints the per-layer metrics.

Every unit's report is checked against its golden digest; a unit that
raises or whose digest differs counts as failed.  The last line of
standard output is the JSON result; the lines before it print every
metric with its unit and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before numpy is first imported, here and in the set-up probes
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # extra set-up runs in fresh processes; setup_s is the median of 1 + these

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STAGES = ("validate", "ch", "gma", "reducibility", "ordinary", "build", "audit", "criterion", "replay")

# the traced functions reported per layer; tracer.py wraps more (every public
# module-level function), so that self time is attributed to the right span
LAYER_CALLS = (
    "linalg.howell_form", "linalg.howell_with_transform", "linalg.solve_left",
    "linalg.kernel", "linalg.reduce_by_howell",
    "rings.Ideal.mul_ideal", "rings.Ideal.init", "rings.FiniteRing.local_data",
    "rings.FiniteRing.mul", "rings.FiniteRing.is_unit", "rings.FiniteRing.check_ring",
    "rings.quotient_ring",
    "modules.ring_det", "modules.fitting_ideal",
    "algebras.AssocAlgebra.check_algebra", "algebras.quotient_algebra", "algebras.two_sided_ideal_rows",
    "ordinary.is_ordinary_psrep", "ordinary.ordinary_context", "ordinary.ordinary_quotient",
    "gma.ch_quotient", "gma.lift_idempotents", "gma.gma_decompose", "gma.reducibility_ideal",
    "psrep.residual_split", "psrep.validate_pseudorep",
    "towers.lenstra_check",
    "scenarios.load_scenario", "serialize.canonical_json",
)
LAYER_SELF = (
    "rings.fiber_product", "rings.embedding_dimension",
    "towers.build_eisenstein_tower", "towers.theorem_audit", "towers.fitting_replay",
    "cli.main",
)
LAYER_COUNTS = {
    "linalg.cells": "count",  # sum of rows x cols over Howell-form inputs
    "linalg.solve_left.reuse": "ratio",  # solve_left calls per distinct basis matrix
    "rings.Ideal.mul_ideal.cells": "count",  # sum of a*b*n^3 over ideal products
    "modules.ring_det.terms": "count",  # sum of g!*g ring products over determinants
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    from tracer import LAYERS

    out = []
    for fn in LAYER_CALLS:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    out += [(f"{fn}.self_s", "s", "lower") for fn in LAYER_SELF]
    out += [(name, unit, "lower") for name, unit in LAYER_COUNTS.items()]
    out += [(f"{layer}.raised", "count", "lower") for layer in LAYERS]
    out += [(f"stage.{s}_s", "s", "lower") for s in STAGES]
    out += [("trace.wall_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in PINNED},
        "git_sha": sha,
        "src_lines": src_lines,
    }


def quantile(values, q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def setup(args, workdir: Path):
    """Import the program and build the inputs; returns (workload, goldens, seconds)."""
    t0 = time.perf_counter()
    if not (ROOT / "src" / "exalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no exalg sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.setup(args.workload, args.seed, workdir)
    goldens = workloads.load_goldens(args.workload, args.seed)
    return wl, goldens, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of the workload in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def run_units(wl, goldens, seconds: float, traced: bool, tracer=None, probe=None):
    """Run one pass in the seed's order, then (untraced) more units until
    `seconds` have passed; returns (records, elapsed, probe results).

    `probe`, when given, runs SETUP_PROBES times between the units of the
    first pass: set-up time drifts with the machine as unit time does, and
    samples spread over the run drift less than samples taken back to back.
    Its time is left out of `seconds` and `elapsed`.
    """
    order = wl.order()
    probe_at = {k * len(order) // SETUP_PROBES for k in range(SETUP_PROBES)} if probe else set()
    records, probes = [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while i < len(order) or (not traced and time.perf_counter() < deadline):
        if i in probe_at:
            p0 = time.perf_counter()
            probes.append(probe())
            paused = time.perf_counter() - p0
            t0 += paused
            deadline += paused
        unit = order[i % len(order)]
        if tracer is not None:
            tracer.start_unit()
        i += 1
        try:
            res = wl.run_unit(unit)
        except Exception as exc:  # a failing unit is counted, and the run goes on
            records.append((unit, None, f"{type(exc).__name__}: {exc}"))
            continue
        status = res.error or goldens.check(unit, res.report)
        records.append((unit, res, status))
    return records, time.perf_counter() - t0, probes


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, goldens, setup_main = setup(args, workdir)
        if args.setup_probe:
            print(f"{setup_main:.6f}")
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            if args.workload == "scenario-mix":
                tracer.observers["scenarios.run_scenario"] = lambda rep: wl.stage_times.update(rep.timing)
            tracing.install(tracer)
            missing = tracing.unwrapped_references(tracer)
            if missing:
                raise SystemExit(f"error: unwrapped references remain: {missing}")
        probe = None if args.trace else (lambda: probe_setup(args))
        records, elapsed, probes = run_units(wl, goldens, args.seconds, bool(args.trace), tracer, probe)
        setup_times = [setup_main] + probes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ok = [(u, r) for u, r, s in records if s in ("ok", "recorded")]
    failed = [(u, s) for u, _, s in records if s not in ("ok", "recorded")]
    checked = sum(1 for _, _, s in records if s == "ok")
    recorded = {u.name: workloads.sha256(r.report) for u, r, s in records if s == "recorded"}
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"units {len(records)} ({checked} checked against goldens, {len(recorded)} recorded only, "
             f"{len(failed)} failed)  elapsed {elapsed:.2f} s"]
    for unit, status in failed:
        lines.append(f"FAILED {unit.name}: {status}")
    correct = not failed and bool(records)

    if not args.trace:
        walls = [r.wall for _, r in ok]
        refs = [goldens.ref(u) for u, _ in ok]
        ratios = [w / f for w, f in zip(walls, refs)]
        metrics = {
            "wall_s": sum(walls) / sum(refs) * goldens.pass_ref if ok else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        if ok:
            # per-unit walls rescaled to the median reference unit
            lines.append(f"  units per pass {len(wl.units)}, completed {len(ok)} "
                         f"= {sum(refs) / goldens.pass_ref:.2f} reference passes; "
                         f"unit_p50_s {statistics.median(ratios) * goldens.unit_ref:.4f} s (n={len(ratios)})")
        if len(ratios) >= 100:
            lines.append(f"  unit_p90_s {quantile(ratios, 0.9) * goldens.unit_ref:.4f} s (n={len(ratios)})")
        lines.append(f"  failed_share {len(failed) / max(1, len(records)):.4f}  "
                     f"setup samples {[round(t, 4) for t in setup_times]}")
    else:
        layer = tracer.layer_metrics()
        metrics, units = {}, {}
        for name, unit, _ in per_layer_spec():
            units[name] = unit
            metrics[name] = layer.get(name, 0)
        for s in STAGES:
            metrics[f"stage.{s}_s"] = sum(r.stages.get(s, 0.0) for _, r in ok)
        metrics["trace.wall_s"] = sum(r.wall for _, r in ok)
        metrics["trace.spans"] = tracer.spans()
        # every unit's spans lie inside its timed wall, so their self times must fit in it
        over = [u.name for (u, r, _), own in zip(records, layer["_unit_self_s"]) if r is not None and own > r.wall]
        if over or layer["_self_s"] > elapsed:
            correct = False
            lines.append(f"FAILED summed self time exceeds the traced wall (units {over})")
        lines.append(f"  summed self time {layer['_self_s']:.3f} s of traced wall {elapsed:.3f} s")
    if recorded:
        digest_file = ROOT / ".perfbench" / f"digests-{args.workload}-seed{args.seed}.json"
        digest_file.parent.mkdir(exist_ok=True)
        digest_file.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
        lines.append(f"  digests of units without goldens written to {digest_file.relative_to(ROOT)}")
    lines.append("env " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        lines.append(f"  {name:40s} {value:.6g} {units[name]}")
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
