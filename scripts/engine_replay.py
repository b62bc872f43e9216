"""Replay the Howell and Smith inputs of one benchmark pass through two checkouts.

    python3 scripts/engine_replay.py PARENT_CHECKOUT --workload W [--seed 1] [--repeat 7]

One pass of workload W (see perfbench/workloads.py, used read-only) runs
on the `exalg` of this script's checkout with `linalg._engine`,
`linalg.howell_form` and `rings.smith_form` wrapped to record every
input.  Each input is then replayed through this checkout and through
PARENT_CHECKOUT (another checkout of the repository, whose
`src/exalg/linalg.py` and `src/exalg/rings.py` are loaded under a
separate package name):
- an engine input by both `_engine`s: any difference in done, in the
  first done rows of a, in u, or a nonzero row of a past done;
- a `howell_form` input by both `howell_form`s: any difference in the
  returned rows;
- a `smith_form` input by this checkout's `smith_form` and by the
  parent's `smith_form` of the parent's Howell form of the rows, which
  is what the parent's callers passed it: any difference in exps, w or
  winv.
Each difference is printed and makes the exit status 1.  The best-of-N
time of replaying each kind of input through each checkout is printed
last.
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


def load_parent(checkout: Path):
    """The linalg and rings modules of the checkout, loaded apart from `exalg`."""
    src = checkout / "src" / "exalg"
    pkg = types.ModuleType("_replay_parent")
    pkg.__path__ = [str(src)]
    sys.modules[pkg.__name__] = pkg
    out = []
    for name in ("errors", "linalg", "rings"):
        spec = importlib.util.spec_from_file_location(f"{pkg.__name__}.{name}", src / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod
        spec.loader.exec_module(mod)
        out.append(mod)
    return out[1:]


def capture(workload: str, seed: int) -> dict[str, list[tuple]]:
    """The arguments of every engine, `howell_form` and `smith_form` call in one pass."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from exalg import linalg, rings
    import workloads

    seen = {"engine": [], "howell_form": [], "smith_form": []}
    wrapped = [(linalg, "_engine"), (linalg, "howell_form"), (rings, "smith_form")]
    originals = [getattr(mod, name) for mod, name in wrapped]

    def recorder(kind, fn):
        def record(mat, *args, **kwargs):
            seen[kind].append((np.array(mat, dtype=np.int64),) + args + tuple(kwargs.values()))
            return fn(mat, *args, **kwargs)

        return record

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.setup(workload, seed, Path(tmp))
        for (mod, name), fn in zip(wrapped, originals):
            setattr(mod, name, recorder(name.lstrip("_"), fn))
        try:
            for unit in wl.order():
                wl.run_unit(unit)
        finally:
            for (mod, name), fn in zip(wrapped, originals):
                setattr(mod, name, fn)
    return seen


def engine_differences(ours, theirs) -> list[str]:
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


def array_differences(names, ours, theirs) -> list[str]:
    """The names of the arrays that differ in value, shape or dtype."""
    if len(names) == 1:
        ours, theirs = (ours,), (theirs,)
    return [f"{n} differs" for n, x, y in zip(names, ours, theirs)
            if x.shape != y.shape or x.dtype != y.dtype or not np.array_equal(x, y)]


def best_times(replays, inputs, repeat: int) -> list[float]:
    """Best-of-`repeat` replay time of each replay function, taken in turns."""
    best = [float("inf")] * len(replays)
    for _ in range(repeat):
        for i, replay in enumerate(replays):
            t0 = time.perf_counter()
            for args in inputs:
                replay(*args)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--workload", required=True, choices=("tower-corpus", "psrep-corpus", "scenario-mix"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)

    their_linalg, their_rings = load_parent(args.parent.resolve())
    inputs = capture(args.workload, args.seed)
    from exalg import linalg, rings

    def their_smith(rows, p, k, ncols):
        return their_rings.smith_form(their_linalg.howell_form(rows, p, k, ncols=ncols), p, k, ncols)

    kinds = {
        "engine": (linalg._engine, their_linalg._engine, engine_differences),
        "howell_form": (linalg.howell_form, their_linalg.howell_form, lambda x, y: array_differences(["rows"], x, y)),
        "smith_form": (rings.smith_form, their_smith, lambda x, y: array_differences(["exps", "w", "winv"], x, y)),
    }
    bad = 0
    for kind, (ours, theirs, compare) in kinds.items():
        differ = 0
        for i, call in enumerate(inputs[kind]):
            diff = compare(ours(*call), theirs(*call))
            if diff:
                differ += 1
                mat = call[0]
                print(f"{kind} input {i} ({mat.shape}, p={call[1]}, k={call[2]}): {'; '.join(diff)}")
        bad += differ
        parent_s, tree_s = best_times([theirs, ours], inputs[kind], args.repeat)
        print(f"{args.workload} seed {args.seed}: {len(inputs[kind])} {kind} inputs, {differ} differ; "
              f"best of {args.repeat}: parent {parent_s:.3f} s, working tree {tree_s:.3f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
