"""The three benchmark workloads: their units, inputs and unit runners.

A unit is one tower (tower-corpus) or one scenario (psrep-corpus,
scenario-mix).  `setup` imports the program and builds the inputs from
the seed; `Workload.run_unit` runs one unit through the program and
returns its wall time and the report bytes the digests are taken over.

Golden digests and reference unit costs live in `perfbench/data/`; they
were produced by `calibrate.py` at the commit that defined the
benchmark.  Scenario units are looked up by a key over the scenario
document without its name and seed, which are the only fields the seed
changes in an otherwise equal body, so generated corpora of any seed are
checked wherever their bodies are known.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

SHIPPED_SEED = 1
PSREP_FAMILIES = ("diag-field", "triangular", "diag-zmod", "s3")
ALL_FAMILIES = PSREP_FAMILIES + ("tower-plane", "tower-branch", "tower-axes2", "tower-axes3")
# psrep-corpus draws its units from a 192-file corpus (96 psrep units);
# scenario-mix runs a 32-file corpus (16 towers) plus the bundled scenarios
PSREP_CORPUS_COUNT = 192
MIX_CORPUS_COUNT = 32


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def body_key(doc: dict) -> str:
    """Key of a scenario document with its name and seed left out."""
    return sha256(_plain_json({k: v for k, v in doc.items() if k not in ("name", "seed")}))[:16]


def content_digest(report: bytes) -> str:
    """First 128 bits of the digest of a report without its scenario name and seed."""
    doc = json.loads(report)
    return sha256(_plain_json({k: v for k, v in doc.items() if k not in ("scenario", "seed")}))[:32]


def tower_label(spec) -> str:
    p, e, _trunc, r, h = spec
    extra = {"branch": f"-m{h.get('m')}", "axes": f"-s{h.get('s')}"}.get(h["kind"], "")
    return f"{h['kind']}-F{p**e}{extra}-r{r}"


@dataclass
class Unit:
    name: str
    key: str  # tower label, or body key of a scenario document
    family: str
    payload: object = None


@dataclass
class UnitResult:
    wall: float
    report: bytes | None = None
    error: str | None = None
    stages: dict = field(default_factory=dict)


@dataclass
class Goldens:
    """Expected digests and reference unit costs for one workload."""

    by_name: dict  # unit name -> sha256 of its report bytes (shipped seed only)
    by_key: dict  # unit key -> [digest, reference wall seconds]
    key_digest: object  # report bytes -> the digest stored in by_key
    family_ref: dict  # family -> median reference wall, for keys not in by_key
    pass_ref: float  # reference wall of one pass over the shipped-seed units
    unit_ref: float  # median reference wall of the shipped-seed units

    def ref(self, unit: Unit) -> float:
        entry = self.by_key.get(unit.key)
        return entry[1] if entry else self.family_ref.get(unit.family, self.unit_ref)

    def check(self, unit: Unit, report: bytes) -> str:
        """'ok', 'mismatch', or 'recorded' when no golden covers the unit."""
        expected = self.by_name.get(unit.name)
        entry = self.by_key.get(unit.key)
        if expected is None and entry is None:
            return "recorded"
        if expected is not None and sha256(report) != expected:
            return "mismatch"
        if entry is not None and self.key_digest(report) != entry[0]:
            return "mismatch"
        return "ok"


def load_goldens(workload: str, seed: int) -> Goldens:
    data = json.loads((DATA / "goldens.json").read_text())
    wl = data["workloads"][workload]
    by_name = wl["shipped"] if seed == wl["seed"] else {}
    if workload == "tower-corpus":
        by_key, key_digest = data["towers"], sha256
    else:
        by_key, key_digest = data["bodies"], content_digest
    return Goldens(by_name, by_key, key_digest, data["family_ref_s"], wl["pass_ref_s"], wl["unit_ref_s"])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.units: list[Unit] = []

    def order(self) -> list[Unit]:
        """The units in the seed's order."""
        units = list(self.units)
        random.Random(self.seed).shuffle(units)
        return units

    def run_unit(self, unit: Unit) -> UnitResult:
        raise NotImplementedError


class TowerCorpus(Workload):
    name = "tower-corpus"

    def __init__(self, seed, workdir):
        from exalg import towers

        super().__init__(seed, workdir)
        # the specs towers.tower_corpus() builds its 23 towers from
        self.units = [Unit(tower_label(s), tower_label(s), "tower", s) for s in towers._CORPUS_SPECS]

    def run_unit(self, unit):
        from exalg import serialize, towers
        from exalg.rings import DvrModel

        p, e, trunc, r, spec = unit.payload
        clock = time.perf_counter
        t0 = clock()
        t = towers.build_eisenstein_tower(DvrModel(p, e, trunc), r, dict(spec))
        build = {
            "label": t.label, "r": t.r, "xi": t.xi, "T0": t.T0,
            "h_dim": t.h.n, "glued_dim": t.H.n, "degenerate": t.degenerate,
        }
        t1 = clock()
        audit = towers.theorem_audit(t)
        t2 = clock()
        replay = towers.fitting_replay(t)
        t3 = clock()
        text = serialize.canonical_json({"build": build, "audit": audit, "replay": replay})
        t4 = clock()
        return UnitResult(t4 - t0, text.encode(), stages={"build": t1 - t0, "audit": t2 - t1, "replay": t3 - t2})


def generated_units(seed: int, count: int, out: Path, families) -> list[Unit]:
    from exalg import scenarios

    manifest = scenarios.generate_corpus(seed, count, out)
    units = []
    for f in manifest["files"]:
        path = out / f"{f['name']}.json"
        family = f["name"].split("-", 2)[2]
        if family in families:
            units.append(Unit(f["name"], body_key(json.loads(path.read_text())), family, path))
    return units


class PsrepCorpus(Workload):
    name = "psrep-corpus"

    def __init__(self, seed, workdir):
        from exalg import scenarios

        super().__init__(seed, workdir)
        self.units = generated_units(seed, PSREP_CORPUS_COUNT, workdir / "corpus", PSREP_FAMILIES)
        for u in self.units:
            u.payload = scenarios.load_scenario(u.payload)

    def run_unit(self, unit):
        from exalg import scenarios

        t0 = time.perf_counter()
        report = scenarios.run_scenario(unit.payload)
        text = report.canonical()
        wall = time.perf_counter() - t0
        return UnitResult(wall, text.encode(), stages=dict(report.timing))


class ScenarioMix(Workload):
    name = "scenario-mix"

    def __init__(self, seed, workdir):
        from exalg import scenarios

        super().__init__(seed, workdir)
        self.units = generated_units(seed, MIX_CORPUS_COUNT, workdir / "corpus", ALL_FAMILIES)
        for name, doc in sorted(scenarios.BUILTIN.items()):
            self.units.append(Unit(name, body_key(doc), "bundled", name))
        self.out = workdir / "reports"
        # filled by the traced run from the Report each pipeline returns
        self.stage_times: dict = {}

    def run_unit(self, unit):
        from exalg import cli

        self.stage_times = {}
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["pipeline", str(unit.payload), "--out", str(self.out)])
        wall = time.perf_counter() - t0
        if code != 0:
            return UnitResult(wall, error=f"exit {code}: {sink.getvalue().strip()}")
        report = (self.out / f"{unit.name}.json").read_bytes()
        return UnitResult(wall, report, stages=self.stage_times)


WORKLOADS = {cls.name: cls for cls in (TowerCorpus, PsrepCorpus, ScenarioMix)}


def setup(workload: str, seed: int, workdir: Path) -> Workload:
    """Import the program and build the workload's inputs from the seed."""
    import exalg  # noqa: F401  (import time is part of set-up)

    return WORKLOADS[workload](seed, workdir)
