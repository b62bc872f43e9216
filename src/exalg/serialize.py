"""Canonical JSON for scenario files, reports, and corpus manifests.

Schema versions are plain strings checked on load.  Layouts:

exalg.scenario/1 -- one JSON object per file
    name        scenario id, unique per corpus, reused as the report name
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
"""

import hashlib
import json

import numpy as np

from .errors import InputError

SCENARIO_SCHEMA = "exalg.scenario/1"
REPORT_SCHEMA = "exalg.report/1"
CORPUS_SCHEMA = "exalg.corpus/1"

__all__ = [
    "CORPUS_SCHEMA",
    "REPORT_SCHEMA",
    "SCENARIO_SCHEMA",
    "canonical_json",
    "int_field",
    "int_list_field",
    "object_field",
    "parse_scenario_text",
    "render_text",
    "sha256_text",
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
    """One JSON object of a scenario; reading a field it lacks is an InputError."""

    def __missing__(self, key):
        raise InputError(f"{self.where}: missing field {self.path + str(key)!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _checked(obj: dict, key: str, v, ok: bool, what: str):
    """v, read from obj[key], when ok; otherwise an InputError naming the
    scenario, the field path and what the field must be."""
    if not ok:
        where, path = getattr(obj, "where", "<scenario>"), getattr(obj, "path", "")
        raise InputError(f"{where}: field {path + key!r} must be {what}, got {v!r}")
    return v


def int_field(obj: dict, key: str, default: int | None = None) -> int:
    """obj[key] (or `default` when given and absent); a value that is not an
    integer is an InputError naming the scenario and the field path."""
    v = obj[key] if default is None else obj.get(key, default)
    return _checked(obj, key, v, _is_int(v), "an integer")


def int_list_field(obj: dict, key: str) -> list:
    """obj[key], which must be a list of integers; read like `int_field`."""
    v = obj[key]
    return _checked(obj, key, v, isinstance(v, list) and all(map(_is_int, v)), "a list of integers")


def object_field(obj: dict, key: str, nullable: bool = False):
    """obj[key], which must be a JSON object; read like `int_field`.  With
    `nullable`, null or an absent field gives None."""
    v = obj.get(key) if nullable else obj[key]
    ok = isinstance(v, dict) or (nullable and v is None)
    return _checked(obj, key, v, ok, "an object or null" if nullable else "an object")


def _fields(x, where: str, path: str = ""):
    if isinstance(x, list):
        return [_fields(v, where, f"{path}{i}.") for i, v in enumerate(x)]
    if isinstance(x, dict):
        x = _Fields({k: _fields(v, where, f"{path}{k}.") for k, v in x.items()})
        x.where, x.path = where, path
    return x


def parse_scenario_text(text: str, where: str = "<scenario>") -> dict:
    """Parse and shape-check one scenario document.

    Raises InputError with the offending location or field name; deeper
    semantic validation happens when the scenario is resolved, and a
    field missing there raises InputError too.
    """
    try:
        doc = _fields(json.loads(text), where)
    except json.JSONDecodeError as e:
        raise InputError(f"{where}: line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{where}: scenario must be a JSON object")
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise InputError(f"{where}: field 'schema' must be {SCENARIO_SCHEMA!r}")
    for field, kind in (("name", str), ("kind", str), ("seed", int), ("budget", int), ("stages", list)):
        if not isinstance(doc.get(field), kind):
            raise InputError(f"{where}: field {field!r} must be a {kind.__name__}")
    if not all(isinstance(s, str) for s in doc["stages"]):
        raise InputError(f"{where}: field 'stages' must be a list of strings")
    if doc["budget"] <= 0:
        raise InputError(f"{where}: field 'budget' must be positive")
    if doc["kind"] not in ("psrep", "tower"):
        raise InputError(f"{where}: field 'kind' must be 'psrep' or 'tower'")
    required = ("ring", "group", "psrep") if doc["kind"] == "psrep" else ("dvr", "r", "h")
    for field in required:
        if field not in doc:
            raise InputError(f"{where}: field {field!r} missing for kind {doc['kind']!r}")
    return doc


def render_text(report: dict) -> str:
    """Human rendering of a report dict; not canonical, not parsed back."""
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
    return "\n".join(lines) + "\n"
