"""Canonical JSON for scenario files, reports, and corpus manifests.

Schema versions are plain strings checked on load.  Layouts:

exalg.scenario/1 -- one JSON object per file
    name        scenario id, unique per corpus, the report's file stem
    kind        "psrep" or "tower"
    seed        int, echoed into the report
    budget      int, cap handed to every enumeration the stages run
    stages      list of stage names (kind-specific vocabulary)
    psrep kind  ring {kind: field|zmod|poly, ...}, group {kind: cyclic|
                dihedral|sym3, n, dp, ip}, psrep {kind: char_pair|
                triangular|s3_standard, ...}, kappa char spec or null;
                char specs are {kind: trivial} or {kind: power, gen,
                value} with an integer value taken into the ring
    tower kind  dvr {p, e, trunc}, r, h {kind: plane|branch|axes|mod, ...}

exalg.report/1
    schema, scenario, seed, verdict ("ok" or "invariant-failure"),
    stages {stage name: payload}.  Wall-clock timing never enters the
    canonical payload, so identical runs serialize identically; the
    text renderer is the place that may decorate.

exalg.corpus/1 -- manifest written next to generated scenario files
    schema, seed, count, files [{name, sha256}], digest = sha256 over
    the per-file digests joined in name order.

Every scenario field is read through the readers below, on the document
`read_scenario` wraps, which refuses a float at any depth.  A refusal
reads `field <path>: <reason>`, the path joining keys and list indices
with dots (`group.dp.1`); `scenarios` leads it with `scenario <name>,
stage <stage>: `, stage `load` before any stage runs.
"""

import hashlib
import json
import re

import numpy as np

from .errors import InputError

SCENARIO_SCHEMA = "exalg.scenario/1"
REPORT_SCHEMA = "exalg.report/1"
CORPUS_SCHEMA = "exalg.corpus/1"
# a scenario name is the stem of its report file, so it names no other directory
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

__all__ = [
    "CORPUS_SCHEMA",
    "REPORT_SCHEMA",
    "SCENARIO_SCHEMA",
    "canonical_json",
    "check_field",
    "int_field",
    "int_list_field",
    "list_field",
    "object_field",
    "parse_scenario_text",
    "read_scenario",
    "render_text",
    "render_timing",
    "sha256_text",
    "str_field",
    "to_jsonable",
]


def to_jsonable(x):
    """Recursively strip numpy types so json.dumps sees plain python."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        raise InputError("reports are exact; floats have no canonical form")
    raise InputError(f"cannot serialize {type(x).__name__}")


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, one newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Fields(dict):
    """A JSON object of a scenario; its `path` prefixes its fields' paths."""

    def __missing__(self, key):
        _refuse(self.path + str(key), "missing")


class _Items(list):
    """A JSON list of a scenario, its entries read by index like fields."""


def _refuse(path: str, reason: str):
    raise InputError(f"field {repr(path)[1:-1]}: {reason}")  # escaped, so a key cannot break the line


def _checked(obj, key, v, ok, what: str):
    """v, read from obj[key], when ok; otherwise the refusal of the field."""
    if not ok:
        _refuse(getattr(obj, "path", "") + str(key), f"must be {what}, got {v!r}")
    return v


def int_field(obj: dict, key: str, default: int | None = None) -> int:
    """obj[key] (or `default` when given and absent), which must be an integer."""
    v = obj[key] if default is None else obj.get(key, default)
    return _checked(obj, key, v, isinstance(v, int) and not isinstance(v, bool), "an integer")


def str_field(obj, key, choices=None, default: str | None = None) -> str:
    """obj[key] (or `default` when given and absent), a string among `choices` if given."""
    v = obj[key] if default is None else obj.get(key, default)
    if choices is None:
        return _checked(obj, key, v, isinstance(v, str), "a string")
    return _checked(obj, key, v, isinstance(v, str) and v in choices, "one of " + ", ".join(map(repr, choices)))


def list_field(obj: dict, key: str) -> list:
    """obj[key], which must be a list; its entries are read by index."""
    v = obj[key]
    return _checked(obj, key, v, isinstance(v, list), "a list")


def int_list_field(obj: dict, key: str) -> list:
    """obj[key], which must be a list of integers."""
    items = list_field(obj, key)
    return [int_field(items, i) for i in range(len(items))]


def object_field(obj: dict, key: str, nullable: bool = False):
    """obj[key], a JSON object; with `nullable`, None for null or absent."""
    v = obj.get(key) if nullable else obj[key]
    ok = isinstance(v, dict) or (nullable and v is None)
    return _checked(obj, key, v, ok, "an object or null" if nullable else "an object")


def check_field(obj: dict, key: str, ok, what: str):
    """obj[key] when ok; otherwise the refusal that it must be `what`."""
    return _checked(obj, key, obj[key], ok, what)


def _fields(x, path: str = ""):
    """x with its objects and lists wrapped to know their paths, tuples as lists
    and numpy integers as ints; a float or other inexact value is refused."""
    if isinstance(x, dict):
        out = _Fields({str(k): _fields(v, f"{path}{k}.") for k, v in x.items()})
    elif isinstance(x, (list, tuple)):
        out = _Items(_fields(v, f"{path}{i}.") for i, v in enumerate(x))
    elif isinstance(x, np.integer):
        return int(x)
    elif x is None or isinstance(x, (bool, int, str)):
        return x
    else:
        _refuse(path[:-1], f"must be exact JSON data, got {x!r}")
    out.path = path
    return out


def read_scenario(doc) -> dict:
    """A parsed scenario document wrapped for the readers, its schema and name checked."""
    if not isinstance(doc, dict):
        raise InputError("scenario must be a JSON object")
    try:
        doc = _fields(doc)
    except RecursionError:
        raise InputError("scenario nests too deeply") from None
    str_field(doc, "schema", (SCENARIO_SCHEMA,))
    name = str_field(doc, "name")
    _checked(doc, "name", name, _NAME.fullmatch(name),
             "a file stem: a letter or digit, then letters, digits, '.', '_' or '-'")
    return doc


def parse_scenario_text(text: str) -> dict:
    """`read_scenario` of the JSON text, refused with its line and column when it does not parse."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an integer past Python's digit limit, or nesting past its stack
        raise InputError(f"unreadable JSON: {e}") from None
    return read_scenario(doc)


def render_timing(timing: dict) -> str:
    """One line of the wall time of each stage, in run order."""
    return "timing " + "  ".join(f"{stage} {sec:.3f}s" for stage, sec in timing.items()) + "\n"


def render_text(report: dict) -> str:
    """Human rendering of a report dict; not canonical, not parsed back.

    A report dict made with its timing ends with the `render_timing` line.
    """
    lines = [f"scenario {report['scenario']}  verdict {report['verdict']}  seed {report['seed']}"]
    for stage in report["stages"]:
        payload = report["stages"][stage]
        lines.append(f"  [{stage}]")
        for key in sorted(payload):
            val = payload[key]
            text = json.dumps(to_jsonable(val), sort_keys=True)
            if len(text) > 100:
                text = text[:97] + "..."
            lines.append(f"    {key}: {text}")
    return "\n".join(lines) + "\n" + (render_timing(report["timing"]) if "timing" in report else "")
