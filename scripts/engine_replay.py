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
calls with `by`), `RingMap.check_hom` and `modules.maximal_multiples`
(as `towers` calls it).  Each call is repeated at once on the parent's
rings with the same presentations (too many large tables pass through a
pass to keep them all): any difference in the products, in the verdict
of `check_hom` (passing, or the type and message of what it raised), or
in the rows of `maximal_multiples` against those of the parent's own
`towers.maximal_multiples` is printed.  A call made inside another
wrapped call is part of that call's input and is not repeated on its
own.  The same pass also repeats, wherever it is called from, every
`towers._min_module_rows` call through the parent's `_min_module_rows`
(any difference in the picks), and every `FiniteRing._local_data` of a
ring that carries a residue map through the parent's Frobenius
computation on a ring with the same presentation (any difference in the
radical, in whether the ring is local, that is has one local factor, or
in its residue degree).
Each difference makes the exit status 1.  A unit that raises in either
pass is named, with the workload and the exception, and the exit status
is 1; the first pass raising ends the script before any comparison.
The best-of-N time of replaying each kind of Howell and Smith input
through each checkout is printed after its count.  Each ring product,
pick and local structure is timed the same way on the inputs it was
recorded with, right after its comparison: both checkouts' calls in
turns, N rounds, with every wrapper passing its calls straight through;
the best time of each call is summed per kind and printed after its
count (this checkout's local structure with its radical formed at once),
for `maximal_multiples` with the rows each checkout returned.
"""

from __future__ import annotations

import argparse
import functools
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
    """The linalg, rings and towers modules of the checkout, loaded apart from `exalg`."""
    src = checkout / "src" / "exalg"
    pkg = types.ModuleType("_replay_parent")
    pkg.__path__ = [str(src)]
    sys.modules[pkg.__name__] = pkg
    out = {}
    for name in ("errors", "linalg", "rings", "modules", "serialize", "towers"):
        spec = importlib.util.spec_from_file_location(f"{pkg.__name__}.{name}", src / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod
        spec.loader.exec_module(mod)
        out[name] = mod
    return out["linalg"], out["rings"], out["towers"]


class PassFailed(Exception):
    """A unit of a pass raised; the message names the workload, the unit and the exception."""


def run_pass(workload: str, seed: int, wrappers: dict) -> None:
    """One pass of the workload with each (owner, name) replaced by
    wrappers[owner, name]; PassFailed when a unit raises."""
    import workloads

    originals = {key: getattr(*key) for key in wrappers}
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.setup(workload, seed, Path(tmp))
        for (owner, name), fn in wrappers.items():
            setattr(owner, name, fn)
        try:
            for unit in wl.order():
                try:
                    wl.run_unit(unit)
                except Exception as e:
                    raise PassFailed(f"{workload} seed {seed}, unit {unit.name}: {type(e).__name__}: {e}") from e
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


def compare_products(workload: str, seed: int, their_rings, their_towers, repeat: int) -> dict[str, dict]:
    """Per kind of ring product, pick and local structure: calls,
    differences, and the summed best-of-`repeat` time of each checkout,
    every call of one pass repeated at once on the parent's rings."""
    from exalg import rings, towers

    kinds = ("mul_outer", "orbit", "check_hom", "maximal_multiples", "_min_module_rows", "carried _local_data")
    stats = {kind: {"calls": 0, "differ": 0, "parent_s": 0.0, "tree_s": 0.0} for kind in kinds}
    stats["maximal_multiples"].update(parent_rows=0, tree_rows=0)
    twins = weakref.WeakKeyDictionary()  # our ring -> the parent's ring with its presentation
    depth = [0]
    timing = [False]  # while a call is timed, every wrapper passes its calls straight through

    def twin(ring, fresh=False):
        if fresh or ring not in twins:
            other = their_rings.FiniteRing(ring.p, ring.k, ring.table.copy(), ring.one.copy(), name=ring.name)
            if other.n >= their_rings._SPARSE_DIM:
                other._sparse  # built outside the timed calls, as ours was by check_ring
            twins.setdefault(ring, other)
            return other
        return twins[ring]

    def compared(kind, ours, prepare, describe, differences, nested=False):
        """`ours` wrapped: each outermost call is repeated by the parent's
        call that `prepare` returns for the same arguments, `differences`
        compares the two results given those arguments, and both calls are
        then timed best of `repeat` on those arguments, in turns, a fresh
        `prepare` before each of the parent's.  A `nested` kind is compared
        inside the other wrappers' calls too, and they compare the calls
        inside its own."""
        def call(*args):
            if timing[0] or (depth[0] and not nested):
                return ours(*args)
            depth[0] += not nested
            try:
                out = ours(*args)
                other = prepare(*args)()
            finally:
                depth[0] -= not nested
            entry = stats[kind]
            entry["calls"] += 1
            diff = differences(out, other, *args)
            if diff:
                entry["differ"] += 1
                print(f"{kind} call {entry['calls']} ({describe(*args)}): {'; '.join(diff)}")
            timing[0] = True
            try:
                best = [float("inf")] * 2
                for _ in range(repeat):
                    theirs = prepare(*args)
                    for i, fn in enumerate((theirs, lambda: ours(*args))):
                        t0 = time.perf_counter()
                        fn()
                        best[i] = min(best[i], time.perf_counter() - t0)
            finally:
                timing[0] = False
            entry["parent_s"] += best[0]
            entry["tree_s"] += best[1]
            return out

        return call

    def products(x, y, *args):
        return array_differences(["products"], np.asarray(x), np.asarray(y))

    def verdict(fn, *args):
        """None when fn(*args) passes, else what it raised."""
        try:
            fn(*args)
        except Exception as e:
            return e
        return None

    def same_verdict(x, y, *args):
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

    def parent_multiples(r, rows, g):
        other = twin(r)
        other._local_data, other.maximal_generators  # as the parent's pass had them at hand
        return lambda: their_towers.maximal_multiples(other, rows, g)

    def same_rows(ours, theirs, *args):
        entry = stats["maximal_multiples"]
        entry["tree_rows"] += len(ours)
        entry["parent_rows"] += len(theirs)
        return array_differences(["rows"], ours, theirs)

    multiples = compared(
        "maximal_multiples", towers.maximal_multiples, parent_multiples,
        lambda r, rows, g: f"dim {r.n}, {np.shape(rows)}, g={g}", same_rows)

    def parent_picks(ring, full, g):
        other = twin(ring)
        other._local_data, other.maximal_generators  # as the parent's pass had them at hand
        return lambda: their_towers._min_module_rows(other, full, g)

    picks = compared(
        "_min_module_rows", towers._min_module_rows, parent_picks,
        lambda r, full, g: f"dim {r.n}, {np.shape(full)}, g={g}",
        lambda x, y, *args: array_differences(["picks"], x, y), nested=True)

    local_data = rings.FiniteRing.__dict__["_local_data"]

    def ours_local(ring):
        """Our local structure with the radical formed at once."""
        out = ring.__dict__["_local_data"] = local_data.func(ring)
        ring.radical_rows()
        return out

    def parent_local(ring):
        other = twin(ring, fresh=True)  # its Frobenius computation, not a cached one
        return lambda: other._local_data

    def same_local(ours, theirs, ring):
        out = array_differences(["radical"], ours["radical"], theirs["radical"])
        return out + [f"{key} {ours[key]} != {theirs[key]}" for key in ("local", "residue_log") if ours[key] != theirs[key]]

    carried = compared(
        "carried _local_data", ours_local, parent_local, lambda r: f"{r.name}, dim {r.n}", same_local, nested=True)

    def read_local(ring):
        return local_data.func(ring) if ring._residue_map is None else carried(ring)

    counted_local = functools.cached_property(read_local)
    counted_local.__set_name__(rings.FiniteRing, "_local_data")

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
        (towers, "maximal_multiples"): multiples,
        (towers, "_min_module_rows"): picks,
        (rings.FiniteRing, "_local_data"): counted_local,
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
    their_linalg, their_rings, their_towers = load_parent(args.parent.resolve())
    try:
        inputs = capture(args.workload, args.seed)
    except PassFailed as e:
        print(f"the working tree's pass raised, nothing compared: {e}")
        return 1
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
    try:
        products = compare_products(args.workload, args.seed, their_rings, their_towers, args.repeat)
    except PassFailed as e:
        print(f"the ring product pass raised: {e}")
        return 1
    for kind, entry in products.items():
        bad += entry["differ"]
        rows = f"; rows: parent {entry['parent_rows']}, working tree {entry['tree_rows']}" if "tree_rows" in entry else ""
        print(f"{args.workload} seed {args.seed}: {entry['calls']} {kind} calls, {entry['differ']} differ; "
              f"summed best of {args.repeat}: parent {entry['parent_s']:.3f} s, "
              f"working tree {entry['tree_s']:.3f} s{rows}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
