"""Report bytes against the benchmark's golden digests.

`perfbench/data/goldens.json` holds, for every scenario body the
benchmark knows, the content digest of its canonical report: the report
without its scenario name and seed.  The body key and the content digest
are the ones `perfbench/workloads.py` defines, loaded from that file, and
the goldens file is only read.  The bundled scenarios and every psrep unit
of a seed-1 corpus must reproduce their digests byte for byte.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from exalg import scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_reports_match_the_golden_content_digests(tmp_path, monkeypatch):
    wl = _workloads(monkeypatch)
    bodies = json.loads((PERFBENCH / "data" / "goldens.json").read_text())["bodies"]
    sources = [(name, doc) for name, doc in sorted(scenarios.BUILTIN.items())]
    scenarios.generate_corpus(seed=1, count=48, out_dir=tmp_path)
    for path in sorted(tmp_path.glob("gen1-*.json")):
        doc = json.loads(path.read_text())
        if doc["kind"] == "psrep":
            sources.append((path, doc))
    assert len(sources) == len(scenarios.BUILTIN) + 24
    for source, doc in sources:
        key = wl.body_key(doc)
        if key not in bodies:
            pytest.fail(f"no golden digest for {source}")
        report = scenarios.run_scenario(scenarios.load_scenario(source)).canonical().encode()
        assert wl.content_digest(report) == bodies[key][0], source
