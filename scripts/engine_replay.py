"""Replay the Howell engine inputs of one benchmark pass through two engines.

    python3 scripts/engine_replay.py PARENT_CHECKOUT --workload W [--seed 1] [--repeat 7]

One pass of workload W (see perfbench/workloads.py, used read-only) runs
on the `exalg` of this script's checkout with `linalg._engine` wrapped to
record every input.  Each input is then reduced by that engine and by the
engine of PARENT_CHECKOUT (another checkout of the repository, whose
`src/exalg/linalg.py` is loaded under a separate package name).  Any
difference in done, in the first done rows of a, in u, or a nonzero row
of a past done, is printed and makes the exit status 1.  The best-of-N
time of replaying all inputs through each engine is printed last.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_engine(checkout: Path):
    """The `_engine` of the checkout's linalg module, loaded apart from `exalg`."""
    src = checkout / "src" / "exalg"
    pkg = types.ModuleType("_replay_parent")
    pkg.__path__ = [str(src)]
    sys.modules[pkg.__name__] = pkg
    spec = importlib.util.spec_from_file_location(f"{pkg.__name__}.linalg", src / "linalg.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod._engine


def capture(workload: str, seed: int) -> list[tuple]:
    """(mat, p, k, with_transform) of every engine call in one pass."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from exalg import linalg
    import workloads

    seen = []
    engine = linalg._engine

    def record(mat, p, k, with_transform):
        seen.append((np.array(mat, dtype=np.int64), p, k, with_transform))
        return engine(mat, p, k, with_transform)

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.setup(workload, seed, Path(tmp))
        linalg._engine = record
        try:
            for unit in wl.order():
                wl.run_unit(unit)
        finally:
            linalg._engine = engine
    return seen


def differences(ours, theirs) -> list[str]:
    (a1, u1, d1), (a2, u2, d2) = ours, theirs
    out = []
    if d1 != d2:
        out.append(f"done {d1} != {d2}")
    elif not np.array_equal(a1[:d1], a2[:d2]):
        out.append("a differs in the Howell rows")
    if a1[d1:].any() or a2[d2:].any():
        out.append("a has a nonzero row past done")
    if (u1 is None) != (u2 is None) or (u1 is not None and not np.array_equal(u1, u2)):
        out.append("u differs")
    return out


def best_times(engines, inputs, repeat: int) -> list[float]:
    """Best-of-`repeat` replay time of each engine, taken in turns."""
    best = [float("inf")] * len(engines)
    for _ in range(repeat):
        for i, engine in enumerate(engines):
            t0 = time.perf_counter()
            for mat, p, k, wt in inputs:
                engine(mat, p, k, wt)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--workload", required=True, choices=("tower-corpus", "psrep-corpus", "scenario-mix"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)

    theirs = load_engine(args.parent.resolve())
    inputs = capture(args.workload, args.seed)
    from exalg.linalg import _engine as ours

    bad = 0
    for i, (mat, p, k, wt) in enumerate(inputs):
        diff = differences(ours(mat, p, k, wt), theirs(mat, p, k, wt))
        if diff:
            bad += 1
            print(f"input {i} ({mat.shape[0]}x{mat.shape[1]}, p={p}, k={k}, transform={wt}): {'; '.join(diff)}")
    print(f"{args.workload} seed {args.seed}: {len(inputs)} engine inputs, {bad} differ")
    parent_s, tree_s = best_times([theirs, ours], inputs, args.repeat)
    print(f"best of {args.repeat}: parent {parent_s:.3f} s, working tree {tree_s:.3f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
