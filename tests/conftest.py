"""The audit of the checks that the constructors leave out.

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

Each wrapper replaces its constructor in every `exalg` module that holds
it, such as `towers`, which imports `quotient_ring` and `fiber_product`
by name.  This file is imported before any test module, so the tests'
own imports by name get the wrappers too.  The hook keeps counts per
constructor (`AUDITED`), never the objects, so the rings of a unit
are still freed by reference counting alone.
"""

import collections
import functools

import numpy as np

import exalg
from exalg import algebras, gma, rings, towers
from exalg.errors import InvariantViolation

AUDITED = collections.Counter()  # objects audited so far, by constructor name


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
    (algebras, "_presented_quotient"): lambda quot: quot.algebra.check_algebra(),
    (gma, "_ch_algebra"): _check_ch,
    (towers, "build_eisenstein_tower"): _check_tower,
}


def _audited(name, build, check):
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        out = build(*args, **kwargs)
        check(out)
        AUDITED[name] += 1
        return out

    return wrapper


def _install() -> None:
    modules = [getattr(exalg, name) for name in exalg.__all__ if name.islower()]
    for (home, name), check in CHECKS.items():
        build = getattr(home, name)
        wrapper = _audited(name, build, check)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is build:
                    setattr(module, attr, wrapper)


_install()
