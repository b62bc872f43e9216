"""Canonical JSON layer: exactness, determinism, and parse diagnostics."""

import json

import numpy as np
import pytest

from exalg import scenarios, serialize
from exalg.errors import InputError


def test_canonical_json_ignores_key_order():
    a = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}
    b = {"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
    assert serialize.canonical_json(a) == serialize.canonical_json(b)
    assert serialize.canonical_json(a).endswith("\n")


def test_canonical_json_is_parseable_and_compact():
    text = serialize.canonical_json({"a": [1, None, True], "z": "s"})
    assert json.loads(text) == {"a": [1, None, True], "z": "s"}
    assert ": " not in text and ", " not in text


def test_to_jsonable_strips_numpy():
    out = serialize.to_jsonable(
        {
            "arr": np.arange(4, dtype=np.int64).reshape(2, 2),
            "scalar": np.int64(7),
            "flag": np.bool_(True),
            "mixed": [np.int64(1), (2, 3)],
        }
    )
    assert out == {"arr": [[0, 1], [2, 3]], "scalar": 7, "flag": True, "mixed": [1, [2, 3]]}
    assert json.dumps(out)  # nothing numpy survives


def test_floats_are_rejected():
    with pytest.raises(InputError, match="exact"):
        serialize.to_jsonable({"t": 0.5})
    with pytest.raises(InputError, match="cannot serialize"):
        serialize.to_jsonable({"t": object()})


def test_sha256_is_stable():
    assert (
        serialize.sha256_text("")
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert serialize.sha256_text("abc") == serialize.sha256_text("abc")


def test_parse_reports_line_and_column():
    with pytest.raises(InputError, match=r"^line 2 column"):
        serialize.parse_scenario_text('{"schema":\n oops}')


def test_parse_rejects_non_objects_and_wrong_schema():
    with pytest.raises(InputError, match="JSON object"):
        serialize.parse_scenario_text("[1,2]")
    with pytest.raises(InputError, match="^field schema: must be one of 'exalg.scenario/1', got 'other/9'$"):
        serialize.parse_scenario_text('{"schema": "other/9"}')


_TOWER_DOC = {
    "schema": serialize.SCENARIO_SCHEMA,
    "name": "x",
    "kind": "tower",
    "seed": 0,
    "budget": 10,
    "stages": ["build"],
    "dvr": {"p": 5, "e": 1, "trunc": 4},
    "r": 1,
    "h": {"kind": "plane"},
}


def test_parse_checks_field_types():
    """Loading reads every top-level field through the readers, which
    refuse booleans where an integer is due."""
    assert scenarios.load_scenario(_TOWER_DOC).name == "x"
    for field, bad, reason in [
        ("name", 3, "must be a string, got 3"),
        ("seed", "0", "must be an integer, got '0'"),
        ("seed", True, "must be an integer, got True"),
        ("budget", "10", "must be an integer, got '10'"),
        ("budget", True, "must be an integer, got True"),
        ("budget", 0, "must be positive, got 0"),
        ("stages", "build", "must be a list, got 'build'"),
        ("kind", "module", "must be one of 'psrep', 'tower', got 'module'"),
    ]:
        where = "<document>" if field == "name" else "x"
        with pytest.raises(InputError, match=f"^scenario {where}, stage load: field {field}: {reason}$"):
            scenarios.load_scenario(dict(_TOWER_DOC, **{field: bad}))
    with pytest.raises(InputError, match="^scenario x, stage load: field stages.0: must be one of 'build', "):
        scenarios.load_scenario(dict(_TOWER_DOC, stages=["validate"]))


def test_parse_requires_kind_specific_fields():
    """A field the scenario's kind needs is refused at stage load when it is
    missing, whatever stages the scenario lists."""
    doc = {
        "schema": serialize.SCENARIO_SCHEMA,
        "name": "x",
        "kind": "psrep",
        "seed": 0,
        "budget": 10,
        "stages": [],
        "ring": {"kind": "field", "p": 5},
        "group": {"kind": "cyclic", "n": 2, "dp": [0], "ip": [0]},
    }
    with pytest.raises(InputError, match="^scenario x, stage load: field psrep: missing$"):
        scenarios.run_scenario(scenarios.load_scenario(doc))
    with pytest.raises(InputError, match="^scenario x, stage load: field h: missing$"):
        scenarios.run_scenario(scenarios.load_scenario({k: v for k, v in _TOWER_DOC.items() if k != "h"}))


def test_bundled_documents_parse_clean():
    for name, doc in scenarios.BUILTIN.items():
        parsed = serialize.parse_scenario_text(serialize.canonical_json(doc))
        assert parsed["name"] == name


def test_floats_and_other_inexact_values_are_refused_by_path():
    """The wrap of a document refuses a float, or anything else that is not
    exact JSON data, wherever it sits, and names its path; tuples and numpy
    integers are taken as lists and ints."""
    text = serialize.canonical_json(dict(_TOWER_DOC, extra={"deep": [0, {"x": 0}]})).replace('"x":0', '"x":1.5')
    with pytest.raises(InputError, match=r"^field extra\.deep\.1\.x: must be exact JSON data, got 1\.5$"):
        serialize.parse_scenario_text(text)
    with pytest.raises(InputError, match=r"^field dvr\.p: must be exact JSON data, got 5\.0$"):
        serialize.read_scenario(dict(_TOWER_DOC, dvr={"p": 5.0}))
    with pytest.raises(InputError, match=r"^field a\\nb: must be exact JSON data, got 0\.5$"):
        serialize.read_scenario(dict(_TOWER_DOC, **{"a\nb": 0.5}))  # the refusal stays one line
    doc = serialize.read_scenario(dict(_TOWER_DOC, stages=("build",), r=np.int64(1)))
    assert doc["stages"] == ["build"] and type(doc["r"]) is int


def test_render_text_truncates_long_values():
    report = {
        "scenario": "demo",
        "seed": 3,
        "verdict": "ok",
        "stages": {"s": {"short": [1, 2], "long": list(range(200))}},
    }
    text = serialize.render_text(report)
    assert text.splitlines()[0] == "scenario demo  verdict ok  seed 3"
    assert "  [s]" in text
    assert "short: [1, 2]" in text
    long_line = next(l for l in text.splitlines() if "long:" in l)
    assert long_line.endswith("...") and len(long_line) < 120
