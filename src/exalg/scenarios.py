"""Scenario resolution and the report pipeline.

A scenario names its objects through a small builder vocabulary (rings,
marked groups, characters, pseudorepresentations, towers) and lists the
stages to run.  Stages resolve lazily: each object a stage reads is an
attribute of the scenario's `_State` (ring, grp, psr, kappa, ch,
decision and gma; lam and tower), built on first read and kept, so
asking for the reducibility stage alone still builds the quotient chain
it needs, but only the requested stages appear in the report.

Everything here is deterministic.  The only randomness in the module is
the corpus generator, which owns a seeded Random instance and bakes the
seed into every scenario name, so corpora from different seeds can
never collide.

Stage vocabulary, psrep scenarios:
    validate      pseudorepresentation axioms with witnesses on failure
    ch            Cayley-Hamilton quotient dimensions
    gma           idempotent pair and Peirce block sizes; with kappa, the
                  ordinarity decision's winner (else its first candidate)
    reducibility  pairing ideal, its quotient, and the split certificate
    ordinary      rep-level and trace-level ordinarity plus the quotient

Tower scenarios:
    build         glued ring sizes and the T0 certificate
    audit         the structural condition table
    criterion     numerical criterion on the rank-two model (plane
                  gluings) or the h-level itself (everything else)
    replay        Fitting-ideal replay of the cotangent bound
"""

import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import gma as gma_mod
from . import groups, ordinary, psrep, serialize, towers
from .errors import BudgetExceeded, InputError, InvariantViolation
from .rings import DvrModel, RingMap, field_ring, truncated_poly_ring, zmod_ring
from .serialize import int_field, int_list_field, object_field

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
    kind = spec.get("kind")
    if kind == "field":
        return field_ring(int_field(spec, "p"), int_field(spec, "e", 1))
    if kind == "zmod":
        return zmod_ring(int_field(spec, "p"), int_field(spec, "k", 1))
    if kind == "poly":
        base = _build_ring(object_field(spec, "base"))
        return truncated_poly_ring(base, int_field(spec, "trunc"))
    raise InputError(f"unknown ring kind {kind!r}")


def _build_group(spec: dict):
    kind = spec.get("kind")
    if kind == "cyclic":
        grp = groups.cyclic_group(int_field(spec, "n"))
    elif kind == "dihedral":
        grp = groups.dihedral_group(int_field(spec, "n"))
    elif kind == "sym3":
        grp = groups.symmetric_3()
    else:
        raise InputError(f"unknown group kind {kind!r}")
    return grp.mark(dp=tuple(int_list_field(spec, "dp")), ip=tuple(int_list_field(spec, "ip")))


def _build_char(spec, grp, ring, name="chi"):
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "trivial":
        return groups.trivial_char(grp, ring, name=name)
    if kind == "power":
        value = ring.from_int(int_field(spec, "value"))
        return groups.cyclic_char(grp, ring, int_field(spec, "gen", 1), value, name=name)
    raise InputError(f"unknown character kind {kind!r}")


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
    kind = spec.get("kind")
    if kind in ("char_pair", "triangular"):
        chi1 = _build_char(object_field(spec, "chi1"), grp, ring, name="chi1")
        chi2 = _build_char(object_field(spec, "chi2"), grp, ring, name="chi2")
        return psrep.psrep_from_chars(chi1, chi2, name="psr" if kind == "char_pair" else "tri")
    if kind == "s3_standard":
        return _s3_standard(grp, ring)
    raise InputError(f"unknown psrep kind {kind!r}")


# ---- lazy stage state ------------------------------------------------


class _State:
    """The objects of one scenario, each built on first read and kept.  An
    invalid scenario raises the error of the first object it fails to
    build, in the order ring, grp, psr, then kappa; lam, then tower."""

    def __init__(self, sc: Scenario):
        self.sc = sc

    # psrep chain
    @cached_property
    def ring(self):
        return _build_ring(object_field(self.sc.body, "ring"))

    @cached_property
    def grp(self):
        return _build_group(object_field(self.sc.body, "group"))

    @cached_property
    def psr(self):
        ring, grp = self.ring, self.grp
        return _build_psrep(object_field(self.sc.body, "psrep"), grp, ring)

    @cached_property
    def kappa(self):
        self.psr  # built first, so an invalid psrep raises before kappa is read
        kappa = object_field(self.sc.body, "kappa", nullable=True)
        return _build_char(kappa, self.grp, self.ring, name="kappa")

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
    def lam(self):
        d = object_field(self.sc.body, "dvr")
        return DvrModel(int_field(d, "p"), int_field(d, "e", 1), int_field(d, "trunc"))

    @cached_property
    def tower(self):
        lam = self.lam
        return towers.build_eisenstein_tower(lam, int_field(self.sc.body, "r"), object_field(self.sc.body, "h"))


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
    red = gma_mod.reducibility_ideal(st.gma, st.sc.budget)
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


def _stage_audit(st: _State) -> dict:
    return towers.theorem_audit(st.tower)


def _stage_criterion(st: _State) -> dict:
    t = st.tower
    lam = st.lam
    if st.sc.body["h"]["kind"] == "plane":
        model = towers.branch_algebra(lam, t.r) if t.r else towers.base_algebra(lam)
        tag = "rank2"
    else:
        model = t.hlevel
        tag = "h-level"
    rep = towers.lenstra_check(model.ring, RingMap.identity(model.ring), model)
    rep["model"] = tag
    return rep


def _stage_replay(st: _State) -> dict:
    return towers.fitting_replay(st.tower)


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
        "audit": _stage_audit,
        "criterion": _stage_criterion,
        "replay": _stage_replay,
    },
}


# ---- loading and running --------------------------------------------


def load_scenario(source, seed=None, budget=None, stages=None) -> Scenario:
    """Resolve a builtin name, a path, or a parsed dict into a Scenario."""
    if isinstance(source, Scenario):
        doc = dict(source.body)
        doc.update(
            name=source.name, kind=source.kind, seed=source.seed,
            budget=source.budget, stages=list(source.stages),
        )
    elif isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, Path)) and str(source) in BUILTIN:
        doc = BUILTIN[str(source)]
    else:
        path = Path(source)
        if not path.is_file():
            raise InputError(f"no scenario file or bundled scenario named {source!r}")
        doc = serialize.parse_scenario_text(path.read_text(), where=str(path))
    if isinstance(doc, dict) and "schema" not in doc:
        doc = {"schema": serialize.SCENARIO_SCHEMA, **doc}
    doc = serialize.parse_scenario_text(serialize.canonical_json(doc), where=doc.get("name", "<scenario>"))
    chosen = tuple(stages if stages is not None else doc["stages"])
    known = _STAGES[doc["kind"]]
    for s in chosen:
        if s not in known:
            raise InputError(f"unknown stage {s!r} for kind {doc['kind']!r}")
    return Scenario(
        name=doc["name"],
        kind=doc["kind"],
        seed=int(seed if seed is not None else doc["seed"]),
        budget=int(budget if budget is not None else doc["budget"]),
        stages=chosen,
        body=doc,
    )


def run_scenario(source, seed=None, budget=None, stages=None) -> Report:
    """Run the scenario's stages and assemble the report.

    Hard invariant failures propagate as exceptions, their message led by
    the scenario and the stage that raised them; a validation stage that
    merely reports failures downgrades the verdict instead.
    """
    import time

    sc = load_scenario(source, seed=seed, budget=budget, stages=stages)
    st = _State(sc)
    out: dict = {}
    timing: dict = {}
    verdict = "ok"
    for stage in sc.stages:
        t0 = time.perf_counter()
        try:
            payload = _STAGES[sc.kind][stage](st)
        except (InputError, BudgetExceeded, InvariantViolation) as e:
            # a field reader may have led with the scenario name already
            reason = str(e).removeprefix(f"{sc.name}: ")
            raise type(e)(f"scenario {sc.name}, stage {stage}: {reason}") from e
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
