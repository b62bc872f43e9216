"""Scenario resolution and the report pipeline.

A scenario names its objects through a small builder vocabulary (rings,
marked groups, characters, pseudorepresentations, towers) and lists the
stages to run.  Its `_State` builds the objects the document spells out
at stage `load`, and the derived ones (ch, decision, gma; tower) on
first read, so the reducibility stage alone still builds the quotient
chain it needs, but only the requested stages appear in the report.
Each refusal reads `scenario <name>, stage <stage>: <reason>`
(`_refusals`); a load error names its source until `name` is read.

Everything here is deterministic.  The only randomness in the module is
the corpus generator, which owns a seeded Random instance and bakes the
seed into every scenario name, so corpora from different seeds can
never collide.

Stage vocabulary, psrep scenarios:
    validate      pseudorepresentation axioms with witnesses on failure
    ch            Cayley-Hamilton quotient dimensions
    gma           idempotent pair and Peirce block sizes; with kappa, the
                  ordinarity decision's winner (else its first candidate)
    reducibility  pairing ideal and its quotient, where the trace splits as
                  the corner characters of the GMA
    ordinary      rep-level and trace-level ordinarity plus the quotient

Tower scenarios:
    build         glued ring sizes and the T0 certificate
    audit         the structural condition table
    criterion     numerical criterion on the rank-two model (plane
                  gluings) or the h-level itself (everything else)
    replay        Fitting-ideal replay of the cotangent bound
"""

import contextlib
import math
import random
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import gma as gma_mod
from . import groups, ordinary, psrep, serialize, towers
from .errors import BudgetExceeded, InputError, InvariantViolation
from .rings import DvrModel, RingMap, field_ring, truncated_poly_ring, zmod_ring
from .serialize import check_field, int_field, int_list_field, list_field, object_field, str_field

__all__ = [
    "BUILTIN",
    "Report",
    "Scenario",
    "generate_corpus",
    "load_scenario",
    "run_scenario",
]


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    seed: int
    budget: int
    stages: tuple
    body: dict


@dataclass
class Report:
    scenario: str
    seed: int
    verdict: str
    stages: dict
    timing: dict

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema": serialize.REPORT_SCHEMA,
            "scenario": self.scenario,
            "seed": self.seed,
            "verdict": self.verdict,
            "stages": serialize.to_jsonable(self.stages),
        }
        if include_timing:
            out["timing"] = {k: round(v, 3) for k, v in self.timing.items()}
        return out

    def canonical(self) -> str:
        return serialize.canonical_json(self.as_dict())


# ---- builder vocabulary ---------------------------------------------


def _build_ring(spec: dict):
    kind = str_field(spec, "kind", ("field", "zmod", "poly"))
    if kind == "field":
        return field_ring(int_field(spec, "p"), int_field(spec, "e", 1))
    if kind == "zmod":
        return zmod_ring(int_field(spec, "p"), int_field(spec, "k", 1))
    base = _build_ring(object_field(spec, "base"))
    return truncated_poly_ring(base, int_field(spec, "trunc"))


def _build_group(spec: dict):
    kind = str_field(spec, "kind", ("cyclic", "dihedral", "sym3"))
    if kind == "cyclic":
        grp = groups.cyclic_group(int_field(spec, "n"))
    elif kind == "dihedral":
        grp = groups.dihedral_group(int_field(spec, "n"))
    else:
        grp = groups.symmetric_3()
    return grp.mark(dp=tuple(int_list_field(spec, "dp")), ip=tuple(int_list_field(spec, "ip")))


def _build_char(spec, grp, ring, name="chi"):
    if spec is None:
        return None
    if str_field(spec, "kind", ("trivial", "power")) == "trivial":
        return groups.trivial_char(grp, ring, name=name)
    value = ring.from_int(int_field(spec, "value"))
    return groups.cyclic_char(grp, ring, int_field(spec, "gen", 1), value, name=name)


def _s3_standard(grp, ring) -> psrep.Pseudorep2:
    """(t, d) of the standard representation of S3, all a psrep keeps of it:
    t is 2 at 1, -1 on the 3-cycles 1, 2 and 0 on the transpositions 3, 4, 5
    of `groups.symmetric_3`, whose table the group must have; d is the sign."""
    if not np.array_equal(grp.table, groups.symmetric_3().table):
        raise InputError("s3_standard needs the symmetric group on 3 letters")
    t = np.array([2, -1, -1, 0, 0, 0])[:, None] * ring.one
    d = np.array([1, 1, 1, -1, -1, -1])[:, None] * ring.one
    return psrep.Pseudorep2(grp, ring, t, d, name="s3std")


def _build_psrep(spec: dict, grp, ring):
    """The psrep of `spec`.  "triangular" names diag(chi1, chi2) conjugated
    by a unipotent, which keeps the trace and the determinant, so as a
    psrep it is chi1 + chi2, as "char_pair" is."""
    kind = str_field(spec, "kind", ("char_pair", "triangular", "s3_standard"))
    if kind == "s3_standard":
        return _s3_standard(grp, ring)
    chi1 = _build_char(object_field(spec, "chi1"), grp, ring, name="chi1")
    chi2 = _build_char(object_field(spec, "chi2"), grp, ring, name="chi2")
    return psrep.psrep_from_chars(chi1, chi2, name="psr" if kind == "char_pair" else "tri")


def _int_at_least(obj: dict, key: str, low: int) -> int:
    v = int_field(obj, key)
    check_field(obj, key, v >= low, f">= {low}")
    return v


def _odd_prime(p: int) -> bool:
    """Whether `linalg.check_modulus` takes p as the prime of a field."""
    return 3 <= p < 2**21 and all(p % q for q in range(2, math.isqrt(p) + 1))


# the integer field of each h-level kind and its least value, as `towers` reads them
_H_FIELDS = {"branch": ("m", 1), "axes": ("s", 2), "mod": ("j", 1)}


# ---- lazy stage state ------------------------------------------------


class _State:
    """The objects of one scenario: ring, grp, psr, kappa or lam, r, h built
    now, in that order, and the rest on first read.  Each tower field that
    `towers` guards is refused here by its path; `towers` reads h again
    when the tower is built, as the benchmark builds towers from plain
    spec dicts."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        body = sc.body
        if sc.kind == "psrep":
            self.ring = _build_ring(object_field(body, "ring"))
            self.grp = _build_group(object_field(body, "group"))
            self.psr = _build_psrep(object_field(body, "psrep"), self.grp, self.ring)
            kappa = object_field(body, "kappa", nullable=True)
            self.kappa = _build_char(kappa, self.grp, self.ring, name="kappa")
        else:
            d = object_field(body, "dvr")
            p, e = int_field(d, "p"), int_field(d, "e", 1)
            check_field(d, "p", _odd_prime(p), "an odd prime below 2^21")
            check_field(d, "e", 1 <= e <= 3, "a residue degree of 1, 2 or 3")
            self.lam = DvrModel(p, e, _int_at_least(d, "trunc", 2))
            self.r = _int_at_least(body, "r", 0)
            self.h = object_field(body, "h")
            kind = str_field(self.h, "kind", ("plane", *_H_FIELDS))
            if kind in _H_FIELDS:
                _int_at_least(self.h, *_H_FIELDS[kind])

    # psrep chain
    @cached_property
    def ch(self):
        return gma_mod.ch_quotient(self.psr)

    @cached_property
    def decision(self):
        """(result, checked stack row or None) of the ordinarity decision for the scenario's kappa."""
        return ordinary._decide(self.ch, self.kappa, self.sc.budget)

    @cached_property
    def gma(self):
        """The GmaAlgebra of the decision's row, already checked; else that of the lifted idempotent."""
        ch = self.ch
        row = None if self.kappa is None else self.decision[1]
        if row is not None:
            return gma_mod._read_gma(ch, *row)
        return gma_mod.gma_decompose(ch, gma_mod.lift_idempotents(ch, self.sc.budget))

    # tower chain
    @cached_property
    def tower(self):
        return towers.build_eisenstein_tower(self.lam, self.r, self.h)


# ---- stages ----------------------------------------------------------


def _stage_validate(st: _State) -> dict:
    res = st.psr.validation
    return {"ok": res["ok"], "failures": res["failures"], "group_order": st.psr.group.m}


def _stage_ch(st: _State) -> dict:
    ch = st.ch
    return {"dim": ch.nbar, "group_order": ch.psr.group.m, "base": ch.base.name}


def _stage_gma(st: _State) -> dict:
    g = st.gma
    a = g.base
    return {
        "e1": g.e1,
        "b_rows": int(g.b_basis.shape[0]),
        "c_rows": int(g.c_basis.shape[0]),
        "base": a.name,
    }


def _stage_reducibility(st: _State) -> dict:
    red = gma_mod.reducibility_ideal(st.gma)
    ideal = red["ideal"]
    cert = red["certificate"]
    return {
        "ideal_basis": ideal.basis,
        "unit": bool(red["quotient"].ring.n == 0),
        "zero": bool(ideal.is_zero()),
        "quotient_dim": red["quotient"].ring.n,
        "split": None if cert is None else bool(cert["split"]),
    }


def _stage_ordinary(st: _State) -> dict:
    kappa = st.kappa
    if kappa is None:
        raise InputError("stage 'ordinary' needs a kappa character in the scenario")
    ctx = ordinary.ordinary_context(st.gma, kappa)
    rep_check = ordinary.is_ordinary_rep(ctx)
    psr_check = st.decision[0]
    oq = ordinary.ordinary_quotient(ctx)
    return {
        "alignment": ctx.kappa_alignment,
        "rep_ordinary": rep_check["ordinary"],
        "witness": rep_check["witness"],
        "psrep_supported": psr_check["supported"],
        "psrep_ordinary": psr_check["ordinary"],
        "collapsed": oq.collapsed,
        "e_ord_dim": None if oq.collapsed else oq.e_ord.nbar,
        "base_quotient_dim": oq.base_quot.ring.n,
        "j_r_basis": oq.j_r.basis,
    }


def _stage_build(st: _State) -> dict:
    t = st.tower
    return {
        "label": t.label,
        "r": t.r,
        "xi": t.xi,
        "T0": t.T0,
        "h_dim": t.h.n,
        "glued_dim": t.H.n,
        "degenerate": t.degenerate,
    }


def _stage_criterion(st: _State) -> dict:
    t, lam = st.tower, st.lam
    if st.h["kind"] == "plane":
        model = towers.branch_algebra(lam, t.r) if t.r else towers.base_algebra(lam)
        tag = "rank2"
    else:
        model = t.hlevel
        tag = "h-level"
    rep = towers.lenstra_check(model.ring, RingMap.identity(model.ring), model)
    rep["model"] = tag
    return rep


_STAGES = {
    "psrep": {
        "validate": _stage_validate,
        "ch": _stage_ch,
        "gma": _stage_gma,
        "reducibility": _stage_reducibility,
        "ordinary": _stage_ordinary,
    },
    "tower": {
        "build": _stage_build,
        "audit": lambda st: towers.theorem_audit(st.tower),
        "criterion": _stage_criterion,
        "replay": lambda st: towers.fitting_replay(st.tower),
    },
}


# ---- loading and running --------------------------------------------


@contextlib.contextmanager
def _refusals(scenario, stage: str):
    """Lead each refusal raised inside with the scenario and the stage; the
    scenario, which may be a path, is escaped as a field path is, and a
    comma as \\x2c, so it cannot break the line."""
    try:
        yield
    except (InputError, BudgetExceeded, InvariantViolation) as e:
        label = repr(str(scenario))[1:-1].replace(",", r"\x2c")
        raise type(e)(f"scenario {label}, stage {stage}: {e}") from e


def load_scenario(source, seed=None, budget=None) -> Scenario:
    """The Scenario of a builtin name, a path, or a dict (schema optional);
    `seed` and `budget` replace the document's own, and are read as them."""
    with _refusals("<document>" if isinstance(source, dict) else source, "load"):
        if isinstance(source, dict):
            doc = serialize.read_scenario({"schema": serialize.SCENARIO_SCHEMA, **source})
        elif str(source) in BUILTIN:
            doc = serialize.read_scenario(BUILTIN[str(source)])
        elif Path(source).is_file():
            try:
                text = Path(source).read_text()
            except (OSError, UnicodeDecodeError) as e:
                raise InputError(f"unreadable file: {e}") from None
            doc = serialize.parse_scenario_text(text)
        else:
            raise InputError("no scenario file or bundled scenario by that name")
    name = doc["name"]
    doc.update((key, value) for key, value in (("seed", seed), ("budget", budget)) if value is not None)
    with _refusals(name, "load"):
        kind = str_field(doc, "kind", _STAGES)
        listed = list_field(doc, "stages")
        stages = tuple(str_field(listed, i, _STAGES[kind]) for i in range(len(listed)))
        seed, budget = int_field(doc, "seed"), int_field(doc, "budget")
        check_field(doc, "budget", budget > 0, "positive")
    return Scenario(name=name, kind=kind, seed=seed, budget=budget, stages=stages, body=doc)


def run_scenario(sc: Scenario) -> Report:
    """Run the scenario's stages and assemble the report.

    Refusals and hard invariant failures propagate as exceptions, led by
    the scenario and the stage that raised them; a validation stage that
    merely reports failures downgrades the verdict instead.
    """
    with _refusals(sc.name, "load"):
        st = _State(sc)
    out: dict = {}
    timing: dict = {}
    verdict = "ok"
    for stage in sc.stages:
        t0 = time.perf_counter()
        with _refusals(sc.name, stage):
            payload = _STAGES[sc.kind][stage](st)
        timing[stage] = time.perf_counter() - t0
        out[stage] = payload
        if stage == "validate" and not payload["ok"]:
            verdict = "invariant-failure"
    return Report(scenario=sc.name, seed=sc.seed, verdict=verdict, stages=out, timing=timing)


# ---- bundled scenarios ----------------------------------------------

BUILTIN = {
    "diag-ordinary": {
        "schema": serialize.SCENARIO_SCHEMA,
        "name": "diag-ordinary",
        "kind": "psrep",
        "seed": 0,
        "budget": 200000,
        "ring": {"kind": "zmod", "p": 5, "k": 1},
        "group": {"kind": "cyclic", "n": 4, "dp": [0, 1, 2, 3], "ip": [0, 2]},
        "psrep": {
            "kind": "char_pair",
            "chi1": {"kind": "power", "gen": 1, "value": 2},
            "chi2": {"kind": "trivial"},
        },
        "kappa": {"kind": "power", "gen": 1, "value": 3},
        "stages": ["validate", "ch", "gma", "reducibility", "ordinary"],
    },
    "s3-irreducible": {
        "schema": serialize.SCENARIO_SCHEMA,
        "name": "s3-irreducible",
        "kind": "psrep",
        "seed": 0,
        "budget": 200000,
        "ring": {"kind": "field", "p": 5, "e": 1},
        "group": {"kind": "sym3", "dp": [0, 1, 2], "ip": [0, 1, 2]},
        "psrep": {"kind": "s3_standard"},
        "kappa": {"kind": "trivial"},
        "stages": ["validate", "ch", "gma", "reducibility", "ordinary"],
    },
    "plane-tower-r2": {
        "schema": serialize.SCENARIO_SCHEMA,
        "name": "plane-tower-r2",
        "kind": "tower",
        "seed": 0,
        "budget": 200000,
        "dvr": {"p": 5, "e": 1, "trunc": 16},
        "r": 2,
        "h": {"kind": "plane"},
        "stages": ["build", "audit", "criterion", "replay"],
    },
}


# ---- corpus generation ----------------------------------------------

_ROOTS = {3: 2, 5: 2, 7: 3, 25: 2, 49: 3}


def _char_spec(rng: random.Random, n: int, p: int, k: int, forbid=None):
    """A power character spec valid on a cyclic generator of order n."""
    modulus = p**k
    unit_order = (p - 1) * p ** (k - 1)
    d = math.gcd(n, unit_order)
    choices = [pow(_ROOTS[modulus], (unit_order // d) * j, modulus) for j in range(d)]
    if forbid is not None:
        choices = [c for c in choices if c != forbid] or choices
    value = rng.choice(choices)
    if value == 1:
        return {"kind": "trivial"}, 1
    return {"kind": "power", "gen": 1, "value": value}, value


def _psrep_body(rng: random.Random, family: str) -> dict:
    if family == "s3":
        p = rng.choice([5, 7])
        return {
            "kind": "psrep",
            "ring": {"kind": "field", "p": p, "e": 1},
            "group": {"kind": "sym3", "dp": [0, 1, 2], "ip": [0, 1, 2]},
            "psrep": {"kind": "s3_standard"},
            "kappa": {"kind": "trivial"},
            "stages": ["validate", "ch", "gma", "reducibility", "ordinary"],
        }
    if family == "diag-zmod":
        n, p, k = rng.choice([(4, 5, 2), (3, 7, 2), (6, 7, 2)])
    else:
        n, p, k = rng.choice([(4, 5, 1), (3, 7, 1), (6, 7, 1), (4, 3, 1)])
    chi1, v1 = _char_spec(rng, n, p, k)
    chi2, _ = _char_spec(rng, n, p, k, forbid=v1)
    kappa, _ = _char_spec(rng, n, p, k)
    ip_gen = rng.choice([g for g in range(n)])
    ip = sorted({(ip_gen * j) % n for j in range(n)})
    body = {
        "kind": "psrep",
        "ring": {"kind": "zmod", "p": p, "k": k},
        "group": {"kind": "cyclic", "n": n, "dp": list(range(n)), "ip": ip},
        "psrep": {
            "kind": "triangular" if family == "triangular" else "char_pair",
            "chi1": chi1,
            "chi2": chi2,
        },
        "kappa": kappa,
        "stages": ["validate", "ch", "gma", "reducibility", "ordinary"],
    }
    return body


def _tower_body(rng: random.Random, family: str) -> dict:
    stages = ["build", "audit", "criterion", "replay"]
    if family == "tower-plane":
        p = rng.choice([3, 5, 7])
        return {
            "kind": "tower",
            "dvr": {"p": p, "e": 1, "trunc": 12},
            "r": rng.choice([1, 2, 3]),
            "h": {"kind": "plane"},
            "stages": stages,
        }
    if family == "tower-branch":
        return {
            "kind": "tower",
            "dvr": {"p": 5, "e": 1, "trunc": 12},
            "r": rng.choice([1, 2]),
            "h": {"kind": "branch", "m": rng.choice([2, 3])},
            "stages": stages,
        }
    s = 2 if family == "tower-axes2" else 3
    return {
        "kind": "tower",
        "dvr": {"p": rng.choice([3, 5]), "e": 1, "trunc": 12 if s == 2 else 8},
        "r": 1,
        "h": {"kind": "axes", "s": s},
        "stages": stages,
    }


_FAMILIES = (
    "diag-field",
    "tower-plane",
    "triangular",
    "tower-branch",
    "diag-zmod",
    "tower-axes2",
    "s3",
    "tower-axes3",
)


def generate_corpus(seed: int, count: int, out_dir, budget: int = 200000) -> dict:
    """Write `count` scenario files plus a checksummed manifest.

    Reproducible: the Random stream is owned locally and the seed is
    part of every scenario name.  Returns the manifest dict.
    """
    if count < 0:
        raise InputError("corpus count must be >= 0")
    if budget < 1:
        raise InputError(f"corpus budget must be positive, got {budget}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = []
    for i in range(count):
        family = _FAMILIES[i % len(_FAMILIES)]
        body = _tower_body(rng, family) if family.startswith("tower") else _psrep_body(rng, family)
        name = f"gen{seed}-{i:03d}-{family}"
        doc = {
            "schema": serialize.SCENARIO_SCHEMA,
            "name": name,
            "seed": seed,
            "budget": budget,
            **body,
        }
        text = serialize.canonical_json(doc)
        (out / f"{name}.json").write_text(text)
        files.append({"name": name, "sha256": serialize.sha256_text(text)})
    files.sort(key=lambda f: f["name"])
    manifest = {
        "schema": serialize.CORPUS_SCHEMA,
        "seed": seed,
        "count": count,
        "files": files,
        "digest": serialize.sha256_text("".join(f["sha256"] for f in files)),
    }
    (out / "manifest.json").write_text(serialize.canonical_json(manifest))
    return manifest
