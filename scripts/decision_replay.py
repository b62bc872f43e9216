"""Replay the ordinarity decisions of one benchmark pass through two checkouts.

    python3 scripts/decision_replay.py PARENT_CHECKOUT --workload W [--seed 1] [--repeat 5]

One pass of workload W (see perfbench/workloads.py, used read-only) runs
on the `exalg` of this script's checkout with `ordinary._decide`, the
decision that `is_ordinary_ch` and a scenario's stages share, wrapped to
record every input: the pseudorepresentation of its Cayley-Hamilton
quotient, kappa and the budget, as plain arrays.  Each input is rebuilt
in this checkout's `exalg` and in that of PARENT_CHECKOUT (another
checkout of the repository, loaded under a separate package name); there
its quotient and residual are derived untimed, and `is_ordinary_ch`
decides it.  Any difference in the result, or in the type and message of
an error, is printed and makes the exit status 1, as does a pass with
psrep units that records no decision.  The best-of-N time of all
decisions through each checkout is printed last.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ERRORS = ("InputError", "BudgetExceeded", "InvariantViolation")


def load_package(checkout: Path, name: str):
    """The `exalg` package of a checkout, imported as `name`."""
    src = checkout / "src" / "exalg"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def plain(ch, kappa, budget) -> dict:
    """One decision input as arrays and names, free of any package's classes."""
    psr, grp, ring = ch.psr, ch.psr.group, ch.psr.ring
    return {
        "ring": (ring.p, ring.k, ring.table.copy(), ring.one.copy(), ring.name),
        "group": (grp.table.copy(), grp.identity, list(grp.names), grp.dp, grp.ip, grp.name),
        "psr": (psr.t.copy(), psr.d.copy(), psr.name),
        "kappa": ({g: v.copy() for g, v in kappa.values.items()}, kappa.name),
        "budget": budget,
    }


def rebuild(pkg, rec):
    """(ch, kappa, budget) of a recorded input in package `pkg`, the
    quotient's residual derived."""
    ring = pkg.rings.FiniteRing(*rec["ring"])
    table, identity, names, dp, ip, name = rec["group"]
    grp = pkg.groups.MarkedGroup(table, identity, names, dp=dp, ip=ip, name=name)
    t, d, psr_name = rec["psr"]
    values, kappa_name = rec["kappa"]
    ch = pkg.gma.ch_quotient(pkg.psrep.Pseudorep2(grp, ring, t, d, psr_name))
    try:
        ch.residual
    except Exception as e:  # the decision raises it again, and the replay compares that
        if type(e).__name__ not in ERRORS:
            raise
    return ch, pkg.groups.GroupChar(grp, ring, values, kappa_name), rec["budget"]


def capture(workload: str, seed: int) -> tuple[list[dict], int]:
    """(every decision input of one pass in call order, the pass's psrep units)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from exalg import ordinary, scenarios
    import workloads

    seen = []
    original = ordinary._decide

    def record(ch, kappa, budget):
        seen.append(plain(ch, kappa, budget))
        return original(ch, kappa, budget)

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.setup(workload, seed, Path(tmp))
        units = wl.order()
        ordinary._decide = record
        try:
            for unit in units:
                wl.run_unit(unit)
        finally:
            ordinary._decide = original
    psrep_units = sum(
        u.family in workloads.PSREP_FAMILIES
        or (u.family == "bundled" and scenarios.BUILTIN[u.name]["kind"] == "psrep")
        for u in units
    )
    return seen, psrep_units


def decide(pkg, ch, kappa, budget):
    """The decision, or the type and message of the error it raises."""
    try:
        return pkg.ordinary.is_ordinary_ch(ch, kappa, budget)
    except Exception as e:
        if type(e).__name__ not in ERRORS:
            raise
        return {"raised": type(e).__name__, "message": str(e)}


def best_times(pkgs, records, repeat: int) -> list[float]:
    """Best-of-`repeat` time of all decisions through each package, taken in
    turns; each round rebuilds every quotient untimed."""
    best = [float("inf")] * len(pkgs)
    for _ in range(repeat):
        for i, pkg in enumerate(pkgs):
            inputs = [rebuild(pkg, rec) for rec in records]
            t0 = time.perf_counter()
            for ch, kappa, budget in inputs:
                decide(pkg, ch, kappa, budget)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--workload", required=True, choices=("tower-corpus", "psrep-corpus", "scenario-mix"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)

    records, psrep_units = capture(args.workload, args.seed)
    ours = importlib.import_module("exalg")
    theirs = load_package(args.parent.resolve(), "_replay_parent")

    bad = 0
    for i, rec in enumerate(records):
        got, want = (decide(pkg, *rebuild(pkg, rec)) for pkg in (ours, theirs))
        if got != want:
            bad += 1
            print(f"input {i} ({rec['psr'][2]} over {rec['ring'][4]}): working tree {got} != parent {want}")
    print(f"{args.workload} seed {args.seed}: {len(records)} decisions, {bad} differ")
    if psrep_units and not records:
        print(f"{psrep_units} psrep units recorded no decision: the capture missed the decision's entry")
        return 1
    parent_s, tree_s = best_times([theirs, ours], records, args.repeat)
    print(f"best of {args.repeat}: parent {parent_s:.3f} s, working tree {tree_s:.3f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
