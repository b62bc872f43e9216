"""The audit of the checks that the library leaves out.

Each constructor below skips a check that its own checks, or an exact
solve it made, imply; its docstring says why.  This hook runs each
skipped check, unchanged, on every object the tests build through that
constructor, so a construction bug that the argument misses still fails
a test:

- `rings.quotient_ring`: `check_ring` on the quotient;
- `rings.fiber_product`: `check_ring` on the ring and `check_hom` on both
  projections;
- `algebras._presented_quotient`: `check_algebra` on the quotient;
- `gma._ch_algebra`: the Cayley-Hamilton identity and the group law
  (`oracles.verify_ch`);
- `towers.build_eisenstein_tower`: `check_hom` on emb_H, emb_H followed
  by each projection, T0 projecting to (0, xi), and h local.

The functions that take a span take its Howell basis as given and do not
reduce it again (`rings` module docstring); raw rows handed to one would
give a wrong span silently.  On every call the tests make, the hook
checks that the basis handed to each of them is its own Howell form:

- `rings.Ideal.from_basis`: the basis;
- `rings.smith_form`: the relation rows;
- `towers._min_module_rows`: the module's basis.

Each wrapper replaces its function in every `exalg` module that holds
it, such as `towers`, which imports `quotient_ring` and `fiber_product`
by name.  This file is imported before any test module, so the tests'
own imports by name get the wrappers too.  The hook keeps counts per
function (`AUDITED`), never the objects, so the rings of a unit
are still freed by reference counting alone.
"""

import collections
import functools

import numpy as np

import exalg
from exalg import algebras, gma, linalg, rings, towers
from exalg.errors import InvariantViolation

AUDITED = collections.Counter()  # objects and calls audited so far, by function name


def _check_fiber_product(out) -> None:
    ring, proj_a, proj_b = out
    ring.check_ring()
    proj_a.check_hom()
    proj_b.check_hom()


def _check_tower(t) -> None:
    t.emb_H.check_hom()
    if not t.degenerate and not t.h.is_local:
        raise InvariantViolation("tower levels must be local")
    lam = t.lam
    if not np.array_equal(t.emb_H.then(t.pr_lam).matrix % lam.ring.char, np.eye(lam.ring.n, dtype=np.int64)):
        raise InvariantViolation("base does not split the tower augmentation")
    if not np.array_equal(t.emb_H.then(t.pr_h).matrix % t.h.char, t.emb_h.matrix % t.h.char):
        raise InvariantViolation("tower embedding disagrees with the h-level embedding")
    if not np.array_equal(t.pr_lam(t.T0), t.xi) or t.pr_h(t.T0).any():
        raise InvariantViolation("T0 does not project to (0, xi)")


def _check_ch(ch) -> None:
    import oracles  # after the wrappers are in place: oracles imports constructors by name

    oracles.verify_ch(ch)


CHECKS = {
    (rings, "quotient_ring"): lambda quot: quot.ring.check_ring(),
    (rings, "fiber_product"): _check_fiber_product,
    (algebras, "_presented_quotient"): lambda quot: quot.ring.check_algebra(),
    (gma, "_ch_algebra"): _check_ch,
    (towers, "build_eisenstein_tower"): _check_tower,
}


def _require_howell(basis, p: int, k: int, ncols: int) -> None:
    if not np.array_equal(linalg.howell_form(basis, p, k, ncols=ncols), basis):
        raise InvariantViolation("a span was handed over as rows that are not its Howell basis")


# the basis argument of each function that takes a Howell basis as given
PRECONDITIONS = {
    (rings.Ideal, "from_basis"): lambda ring, basis: _require_howell(basis, ring.p, ring.k, ring.n),
    (rings, "smith_form"): _require_howell,
    (towers, "_min_module_rows"): lambda ring, full, g: _require_howell(full, ring.p, ring.k, g * ring.n),
}


def _audited(name, build, check):
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        out = build(*args, **kwargs)
        check(out)
        AUDITED[name] += 1
        return out

    return wrapper


def _preconditioned(name, call, require):
    @functools.wraps(call)
    def wrapper(*args, **kwargs):
        require(*args, **kwargs)
        AUDITED[name] += 1
        return call(*args, **kwargs)

    return wrapper


def _install() -> None:
    modules = [getattr(exalg, name) for name in exalg.__all__ if name.islower()]
    wrapped = [(home, name, _audited(name, getattr(home, name), check)) for (home, name), check in CHECKS.items()]
    wrapped += [(home, name, _preconditioned(name, getattr(home, name), require))
                for (home, name), require in PRECONDITIONS.items()]
    for home, name, wrapper in wrapped:
        if isinstance(home, type):  # a classmethod: the wrapper calls it bound
            setattr(home, name, staticmethod(wrapper))
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is wrapper.__wrapped__:
                    setattr(module, attr, wrapper)


_install()
