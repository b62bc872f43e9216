"""Command line front end for scenarios, audits, and corpus generation.

Subcommands take scenario paths or bundled names (diag-ordinary,
s3-irreducible, plane-tower-r2); `audit` with no arguments runs the
built-in tower collection and emits the condition table.  Reports are
canonical JSON by default; --format text renders them for reading and
ends with the wall time of each stage, which never enters the JSON.

Exit codes: 0 success, 1 invariant failure, 2 input error,
3 enumeration budget exceeded.  Exits 2 and 3 print one stderr line,
`scenario <name>, stage <stage>: ...` (stage `load` before any stage
runs) but for the refusals made outside any scenario.
"""

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

from . import scenarios, serialize, towers
from .errors import BudgetExceeded, InputError, InvariantViolation

_STAGE_OVERRIDES = {
    "validate": {"psrep": ("validate",), "tower": ("build",)},
    "pipeline": {"psrep": None, "tower": None},
    "audit": {"psrep": (), "tower": ("build", "audit")},
    "criterion": {"psrep": (), "tower": ("build", "criterion")},
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sp.add_argument("--budget", type=int, default=None, help="override enumeration budgets")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--out", type=Path, default=None, help="write reports into this directory")


@functools.cache  # built once per process; parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "validate": "pseudorepresentation axioms (tower scenarios: build verification)",
        "pipeline": "every stage the scenario lists",
        "audit": "structural condition table of tower scenarios, or the built-in collection",
        "criterion": "numerical isomorphism criterion of tower scenarios",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("scenarios", nargs="*", metavar="SCENARIO", help="paths or bundled names")
        _add_common(sp)
    cp = sub.add_parser("corpus", help="generate a seeded scenario corpus with a manifest")
    cp.add_argument("--count", type=int, default=16, help="number of scenario files")
    _add_common(cp)
    return parser


def _corpus_audit_report(args) -> scenarios.Report:
    """The built-in collection's condition table as the report tower-corpus,
    which reads no budget but refuses --budget as a scenario's load does."""
    with scenarios._refusals("tower-corpus", "load"):
        serialize.check_field(vars(args), "budget", args.budget is None or args.budget > 0, "positive")
    t0 = time.perf_counter()
    table = towers.audit_table(towers.tower_corpus())
    return scenarios.Report(
        scenario="tower-corpus",
        seed=0 if args.seed is None else args.seed,
        verdict="ok",
        stages={"audit": {"rows": table}},
        timing={"audit": time.perf_counter() - t0},
    )


_TABLE_COLUMNS = (
    ("r", "r"),
    ("principal_nzd", "nzd"),
    ("both_principal", "prin"),
    ("embdim_two", "emb2"),
    ("both_gorenstein", "gor"),
    ("multiplicity_one", "mult1"),
    ("eisenstein_colength", "len"),
    ("complete_intersection", "ci"),
)


def _render_condition_table(rows) -> str:
    def cell(v):
        if v is True:
            return "yes"
        if v is False:
            return "no"
        if v is None:
            return "-"
        return str(v)

    width = max(len(r["label"]) for r in rows) + 2
    head = "label".ljust(width) + "  ".join(h.rjust(5) for _, h in _TABLE_COLUMNS)
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(r["label"].ljust(width) + "  ".join(cell(r[k]).rjust(5) for k, _ in _TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


def _emit(report: scenarios.Report, args) -> None:
    as_text = args.format == "text"
    if as_text and report.scenario == "tower-corpus":
        body = _render_condition_table(report.stages["audit"]["rows"]) + serialize.render_timing(report.timing)
    elif as_text:
        body = serialize.render_text(report.as_dict(include_timing=True))
    else:
        body = report.canonical()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{report.scenario}.{'txt' if as_text else 'json'}"
        path.write_text(body)
        print(f"{report.scenario}: {report.verdict} -> {path}")
    else:
        sys.stdout.write(body)


def _run(args) -> int:
    if args.command == "corpus":
        if args.out is None:
            raise InputError("corpus needs --out DIR")
        manifest = scenarios.generate_corpus(
            seed=0 if args.seed is None else args.seed,
            count=args.count,
            out_dir=args.out,
            budget=200000 if args.budget is None else args.budget,
        )
        print(f"{manifest['count']} scenarios -> {args.out}  digest {manifest['digest'][:16]}")
        return 0
    names = list(args.scenarios)
    if not names:
        if args.command == "audit":
            _emit(_corpus_audit_report(args), args)
            return 0
        names = sorted(scenarios.BUILTIN)
    overrides = _STAGE_OVERRIDES[args.command]
    loaded = [scenarios.load_scenario(n, seed=args.seed, budget=args.budget) for n in names]
    loaded.sort(key=lambda sc: sc.name)
    failed = False
    for sc in loaded:
        stages = overrides[sc.kind]
        if stages == ():
            raise InputError(f"{args.command} applies to tower scenarios; {sc.name} is a {sc.kind} scenario")
        report = scenarios.run_scenario(sc if stages is None else dataclasses.replace(sc, stages=stages))
        _emit(report, args)
        failed = failed or report.verdict != "ok"
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
