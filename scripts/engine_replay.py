"""Replay the Howell, Smith and ring-product inputs of one benchmark pass through two checkouts.

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
A second pass wraps `FiniteRing.mul_outer`, `FiniteRing.orbit` (the
calls with `by`) and `RingMap.check_hom`.  Each call is repeated at once
on the parent's rings with the same presentations (too many large tables
pass through a pass to keep them all): any difference in the products,
or in the verdict of `check_hom` (passing, or the type and message of
what it raised), is printed.  A call made inside another wrapped call is
part of that call's input and is not repeated on its own.
Each difference makes the exit status 1.  The best-of-N time of
replaying each kind of Howell and Smith input through each checkout is
printed after its count, and the summed time of each kind of ring
product, timed once per call, after its count.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
import types
import weakref
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


def run_pass(workload: str, seed: int, wrappers: dict) -> None:
    """One pass of the workload with each (owner, name) replaced by wrappers[owner, name]."""
    import workloads

    originals = {key: getattr(*key) for key in wrappers}
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.setup(workload, seed, Path(tmp))
        for (owner, name), fn in wrappers.items():
            setattr(owner, name, fn)
        try:
            for unit in wl.order():
                wl.run_unit(unit)
        finally:
            for (owner, name), fn in originals.items():
                setattr(owner, name, fn)


def capture(workload: str, seed: int) -> dict[str, list[tuple]]:
    """The arguments of every engine, `howell_form` and `smith_form` call in one pass."""
    from exalg import linalg, rings

    seen = {"engine": [], "howell_form": [], "smith_form": []}

    def recorder(kind, fn):
        def record(mat, *args, **kwargs):
            seen[kind].append((np.array(mat, dtype=np.int64),) + args + tuple(kwargs.values()))
            return fn(mat, *args, **kwargs)

        return record

    targets = [(linalg, "_engine"), (linalg, "howell_form"), (rings, "smith_form")]
    run_pass(workload, seed, {(mod, name): recorder(name.lstrip("_"), getattr(mod, name)) for mod, name in targets})
    return seen


def compare_products(workload: str, seed: int, their_rings) -> dict[str, dict]:
    """Per kind of ring product: calls, differences, and the summed time of
    each checkout, every call of one pass repeated at once on the parent's rings."""
    from exalg import rings

    stats = {kind: {"calls": 0, "differ": 0, "parent_s": 0.0, "tree_s": 0.0} for kind in ("mul_outer", "orbit", "check_hom")}
    twins = weakref.WeakKeyDictionary()  # our ring -> the parent's ring with its presentation
    depth = [0]

    def twin(ring):
        if ring not in twins:
            other = their_rings.FiniteRing(ring.p, ring.k, ring.table.copy(), ring.one.copy(), name=ring.name)
            if other.n >= their_rings._SPARSE_DIM:
                other._sparse  # built outside the timed calls, as ours was by check_ring
            twins[ring] = other
        return twins[ring]

    def compared(kind, ours, prepare, describe, differences):
        """`ours` wrapped: each outermost call is repeated by the parent's
        call that `prepare` returns for the same arguments."""
        def call(*args):
            if depth[0]:
                return ours(*args)
            depth[0] += 1
            try:
                t0 = time.perf_counter()
                out = ours(*args)
                t1 = time.perf_counter()
                theirs = prepare(*args)
                t2 = time.perf_counter()
                other = theirs()
                t3 = time.perf_counter()
            finally:
                depth[0] -= 1
            entry = stats[kind]
            entry["calls"] += 1
            entry["tree_s"] += t1 - t0
            entry["parent_s"] += t3 - t2
            diff = differences(out, other)
            if diff:
                entry["differ"] += 1
                print(f"{kind} call {entry['calls']} ({describe(*args)}): {'; '.join(diff)}")
            return out

        return call

    def products(x, y):
        return array_differences(["products"], np.asarray(x), np.asarray(y))

    def verdict(fn, *args):
        """None when fn(*args) passes, else what it raised."""
        try:
            fn(*args)
        except Exception as e:
            return e
        return None

    def same_verdict(x, y):
        x, y = [None if e is None else (type(e).__name__, str(e)) for e in (x, y)]
        return [] if x == y else [f"verdict {x} != {y}"]

    mul_outer, orbit, check_hom = rings.FiniteRing.mul_outer, rings.FiniteRing.orbit, rings.RingMap.check_hom
    outer_call = compared(
        "mul_outer", mul_outer, lambda r, xs, ys: lambda: twin(r).mul_outer(xs, ys),
        lambda r, xs, ys: f"dim {r.n}, {len(xs)} x {len(ys)}", products)
    orbit_by = compared(
        "orbit", orbit, lambda r, rows, g, by: lambda: twin(r).orbit(rows, g, by=by),
        lambda r, rows, g, by: f"dim {r.n}, {np.shape(rows)} by {np.shape(by)}", products)
    hom_verdict = compared(
        "check_hom", lambda f: verdict(check_hom, f),
        lambda f: lambda: verdict(their_rings.RingMap(twin(f.src), twin(f.dst), f.matrix, name=f.name).check_hom),
        lambda f: f"dim {f.src.n} -> {f.dst.n}", same_verdict)

    def orbit_call(ring, rows, g=1, by=None):
        return orbit(ring, rows, g) if by is None else orbit_by(ring, rows, g, by)

    def check_call(f):
        failure = hom_verdict(f)
        if failure is not None:
            raise failure

    run_pass(workload, seed, {
        (rings.FiniteRing, "mul_outer"): outer_call,
        (rings.FiniteRing, "orbit"): orbit_call,
        (rings.RingMap, "check_hom"): check_call,
    })
    return stats


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

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
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
    for kind, entry in compare_products(args.workload, args.seed, their_rings).items():
        bad += entry["differ"]
        print(f"{args.workload} seed {args.seed}: {entry['calls']} {kind} calls, {entry['differ']} differ; "
              f"summed: parent {entry['parent_s']:.3f} s, working tree {entry['tree_s']:.3f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
