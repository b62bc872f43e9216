"""Span tracer for the traced benchmark run.

`install` wraps every public module-level function of the traced `exalg`
modules from outside the package, and the methods in METHODS (for the
`cached_property` `FiniteRing._local_data`, the function behind it, so
that `AssocAlgebra`'s override still applies).  Each wrapper is shared
by every namespace that holds the original, because modules bind each
other's functions by name (`towers` holds its own `fiber_product`,
`ring_det`, ...).

Every call records one span (name, parent span, start, end); the spans
of one unit are the contiguous run that starts at `start_unit`.
Spans stay in memory until the run ends; `layer_metrics` then derives
calls and self time (span minus the wrapped child spans it covers) per
function.  The exact work counters are computed from the arguments at
the boundary, before the span opens, so they never depend on timing.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from functools import cached_property

import numpy as np

LAYERS = (
    "linalg", "rings", "modules", "psrep", "gma", "ordinary",
    "algebras", "towers", "scenarios", "serialize", "cli",
)


def _matrix_cells(rows) -> int:
    shape = np.shape(rows)
    if len(shape) >= 2:
        return shape[0] * shape[1]
    if len(shape) == 1 and shape[0]:
        return shape[0]
    return 0


def _count_howell(tr, args, kwargs):
    tr.counters["linalg.cells"] += _matrix_cells(args[0] if args else kwargs["rows"])


def _count_solve(tr, args, kwargs):
    a = np.asarray(args[0] if args else kwargs["mat"], dtype=np.int64)
    modulus = args[2:4] + tuple(kwargs.get(key) for key in ("p", "k"))
    tr.solve_bases.add(hash((a.shape, modulus, a.tobytes())))


def _count_mul_ideal(tr, args, kwargs):
    a, b = args[0], args[1] if len(args) > 1 else kwargs["other"]
    tr.counters["rings.Ideal.mul_ideal.cells"] += a.basis.shape[0] * b.basis.shape[0] * a.ring.n**3


def _count_ring_det(tr, args, kwargs):
    g = len(args[1] if len(args) > 1 else kwargs["mat"])
    if g <= 6:
        tr.counters["modules.ring_det.terms"] += math.factorial(g) * g


# methods wrapped besides the module-level functions: the ones the per-layer
# metrics name.  Other methods stay unwrapped, which keeps the tracing
# overhead small; their time counts as their caller's self time.
METHODS = {
    "rings.FiniteRing": ("mul", "is_unit", "check_ring", "_local_data"),
    "rings.Ideal": ("__init__", "mul_ideal"),
    "algebras.AssocAlgebra": ("check_algebra",),
}

# work counters, keyed by the traced function name
COUNTERS = {
    "linalg.howell_form": _count_howell,
    "linalg.howell_with_transform": _count_howell,
    "linalg.solve_left": _count_solve,
    "rings.Ideal.mul_ideal": _count_mul_ideal,
    "modules.ring_det": _count_ring_det,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # unit id i owns the spans from unit_first[i] up to the next unit's first
        self.unit_first = array("q")
        self.stack = [-1]
        self.counters = {"linalg.cells": 0, "rings.Ideal.mul_ideal.cells": 0, "modules.ring_det.terms": 0}
        self.raised = [0] * len(LAYERS)
        self.solve_bases: set = set()
        self.originals: dict[int, object] = {}
        # traced name -> callback on each return value; set before install()
        self.observers: dict = {}

    def start_unit(self) -> None:
        """Spans recorded from now on belong to the next unit id."""
        self.unit_first.append(len(self.span_name))

    def wrap(self, fn, name: str):
        """One traced wrapper around fn, recorded under `name`."""
        layer = LAYERS.index(name.split(".", 1)[0])
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        count = COUNTERS.get(name)
        observe = self.observers.get(name)
        names, parents, ends, stack = self.span_name, self.span_parent, self.span_end, self.stack
        add_name, add_parent, add_start, add_end = names.append, parents.append, self.span_start.append, ends.append
        push, pop = stack.append, stack.pop
        name_layer, raised = self.name_layer, self.raised
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer, args, kwargs)
            idx = len(names)
            parent = stack[-1]
            add_name(nid)
            add_parent(parent)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                pop()
                # count an exception once per layer it leaves
                if parent < 0 or name_layer[names[parent]] != layer:
                    raised[layer] += 1
                raise
            ends[idx] = clock()
            pop()
            if observe is not None:
                observe(result)
            return result

        self.originals[id(traced)] = fn
        return traced

    # ---- derived metrics ----------------------------------------------

    def spans(self) -> int:
        return len(self.span_name)

    def layer_metrics(self) -> dict:
        """calls and self_s per traced name, the work counters and raised counts.

        `_self_s` is the summed self time of all spans, `_unit_self_s` the
        same per unit id.
        """
        n = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        child = np.zeros(dur.shape[0])
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_t, minlength=n)
        out: dict = dict(self.counters)
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.self_s"] = float(self_s[i])
        solves = out.get("linalg.solve_left.calls", 0)
        out["linalg.solve_left.reuse"] = solves / len(self.solve_bases) if self.solve_bases else 0.0
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.raised"] = self.raised[i]
        out["_self_s"] = float(self_t.sum())
        unit = np.searchsorted(np.frombuffer(self.unit_first, dtype=np.int64), np.arange(dur.shape[0]), side="right") - 1
        out["_unit_self_s"] = np.bincount(unit[unit >= 0], weights=self_t[unit >= 0], minlength=len(self.unit_first)).tolist()
        return out


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [k for k, v in vars(mod).items()
                 if not k.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
                 and getattr(v, "__module__", None) == mod.__name__]
    return list(names)


def _wrap_methods(tracer: Tracer, cls, prefix: str, attrs) -> None:
    for attr in attrs:
        member = vars(cls)[attr]
        label = f"{prefix}.{attr.strip('_')}"
        if isinstance(member, cached_property):
            member.func = tracer.wrap(member.func, label)
        else:
            setattr(cls, attr, tracer.wrap(member, label))


def package_modules(package: str = "exalg") -> list:
    return [m for k, m in sorted(sys.modules.items()) if m is not None and (k == package or k.startswith(package + "."))]


def install(tracer: Tracer, package: str = "exalg") -> None:
    """Wrap the public functions of every traced layer in place.

    Every module namespace of the package, and every dict held by one,
    is then rebound to the one wrapper of each function.
    """
    import importlib

    for layer in LAYERS:
        importlib.import_module(f"{package}.{layer}")
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr in _public_names(mod):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[id(obj)] = tracer.wrap(obj, f"{layer}.{attr}")
            elif f"{layer}.{attr}" in METHODS:
                _wrap_methods(tracer, obj, f"{layer}.{attr}", METHODS[f"{layer}.{attr}"])
    for mod in package_modules(package):
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in wrappers:
                        val[key] = wrappers[id(item)]


def unwrapped_references(tracer: Tracer, package: str = "exalg") -> list[str]:
    """Places in the package that still hold an unwrapped original (should be none)."""
    originals = {id(fn) for fn in tracer.originals.values()}
    found = []
    for mod in package_modules(package):
        for attr, val in vars(mod).items():
            if id(val) in originals:
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, (dict, list, tuple)):
                items = val.values() if isinstance(val, dict) else val
                if any(id(v) in originals for v in items):
                    found.append(f"{mod.__name__}.{attr}[...]")
            elif inspect.isclass(val):
                for cattr, member in vars(val).items():
                    fn = getattr(member, "func", getattr(member, "__func__", member))
                    if id(fn) in originals:
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
