"""The audit of the checks that the library leaves out.

Each constructor below skips a check that its own checks, or an exact
solve it made, imply; its docstring says why.  This hook runs each
skipped check, unchanged, on every object the tests build through that
constructor, so a construction bug that the argument misses still fails
a test:

- `rings.quotient_ring`: `check_ring` on the quotient, and its local
  structure: read off its residue map against Frobenius when it has one,
  else the ring must be zero or not local by Frobenius;
- `rings.fiber_product`: `check_ring` on the ring, `check_hom` on both
  projections, and the local structure as for a quotient;
- `rings.zmod_ring`, `rings.field_ring`, `rings.truncated_poly_ring`,
  the branch and axes h-levels (`towers._adjoin_x`,
  `towers.axis_algebra`) and the rings the tests build by hand
  (`oracles.local_ring`, `oracles.product_ring`), which carry a residue
  map from their construction or none: the local structure as for a
  quotient;
- `gma.ChAlgebra.residual` over a field base, the algebra itself through
  identity quotients: against `ch_base_change` along the identity, which
  must give the same table, group images, trace and residual split with
  an identity projection;
- `algebras._presented_quotient`: `check_algebra` on the quotient;
- `gma._ch_algebra`: the Cayley-Hamilton identity and the group law
  (`oracles.verify_ch`);
- `ordinary.ordinary_quotient`, which derives J_R from traces and closes
  J* only inside its base change: J_R against the ideal that the trace
  and determinant of every J* row generate (`oracles.ordinary_ideals`),
  and, when the quotient has not collapsed, E_ord against
  `ch_base_change` along A -> A/J_R with J* itself as the extra rows,
  which must give the same table, group images, trace and projection;
- `towers.build_eisenstein_tower`: `check_hom` on emb_H, emb_H followed
  by each projection, T0 projecting to (0, xi), h local, and the tower
  claims the construction implies (`towers` module docstring): the
  colengths of h/I and H/I_H (I_H from `oracles.tower_augmentation`),
  ker(H -> base) against I, the two kernels
  annihilating each other, and Ann(ker(H -> h)) against ker(H -> base)
  beyond the tail;
- `towers._min_module_rows`: the picks against one pick at a time
  (`oracles.loop_min_module_rows`), and their count against d and their
  span against M;
- `gma.reducibility_ideal`, which reads its characters off the GMA
  (`gma` module docstring): over a nonzero A/I each is a character of
  A/I, their sum is t and their product d there, and as a set they are
  the pair `oracles.split_as_characters` finds, where its search fits
  `_SPLIT_BUDGET`.

The local structure is compared with `oracles.frobenius_local_data`,
which does its F_p linear algebra apart from `linalg`, so on rings over
F_p the comparison adds no rows to the engine's work counts.

The functions that take a span take its Howell basis as given and do not
reduce it again (`rings` module docstring); raw rows handed to one would
give a wrong span silently.  On every call the tests make, the hook
checks that the basis handed to each of them is its own Howell form:

- `rings.Ideal.from_basis`: the basis;
- `rings.smith_form`: the relation rows;
- `towers._min_module_rows`: the module's basis.

Each wrapper replaces its function in every `exalg` module that holds
it, such as `towers`, which imports `quotient_ring` and `fiber_product`
by name, and in `oracles`; a cached property runs the wrapper in place
of its function.  This file is imported before any test module, so the
tests' own imports by name get the wrappers too.  The hook keeps counts per
function (`AUDITED`), never the objects, so the rings of a unit
are still freed by reference counting alone.
"""

import collections
import functools

import numpy as np
import oracles

import exalg
from exalg import algebras, gma, linalg, modules, ordinary, psrep, rings, towers
from exalg.errors import BudgetExceeded, InvariantViolation

AUDITED = collections.Counter()  # objects and calls audited so far, by function name


def _check_local_data(ring, *_, **__) -> None:
    """The local structure a carried residue map gives, against Frobenius;
    a nonzero ring that carries none must not be local."""
    if ring.n == 0:
        return
    want = oracles.frobenius_local_data(ring)
    if ring._residue_map is None:
        if want["local"]:
            raise InvariantViolation(f"{ring.name} carries no residue map, but Frobenius finds it local")
        return
    if not (want["local"] and ring.is_local and ring.residue_log_size == want["residue_log"]
            and np.array_equal(ring.radical_rows(), want["radical"])):
        raise InvariantViolation(f"carried local structure of {ring.name} differs from Frobenius")


def _check_quotient(quot, *_, **__) -> None:
    quot.ring.check_ring()
    _check_local_data(quot.ring)


def _check_fiber_product(out, *_, **__) -> None:
    ring, proj_a, proj_b = out
    ring.check_ring()
    proj_a.check_hom()
    proj_b.check_hom()
    _check_local_data(ring)


# bound before any test counts the library's calls
_base_change, _residual_split = gma.ch_base_change, psrep.residual_split


def _same_split(got: dict, want: dict) -> bool:
    """The same case and character values; a test may reword the reason."""
    if got["case"] != want["case"]:
        return False
    if got["chars"] is None or want["chars"] is None:
        return got["chars"] is want["chars"]
    return all(a.domain == b.domain and all(np.array_equal(a(g), b(g)) for g in a.domain)
               for a, b in zip(got["chars"], want["chars"]))


def _same_ch(got, want) -> bool:
    """The same algebra table, one, base embedding, group images and trace."""
    return (got.algebra.k == want.algebra.k
            and all(np.array_equal(getattr(got.algebra, f), getattr(want.algebra, f))
                    for f in ("table", "one", "base_embed"))
            and np.array_equal(got.rho_mat, want.rho_mat) and np.array_equal(got.t_matrix, want.t_matrix))


def _check_residual(res, ch) -> None:
    """Over a field base, the residual against `ch_base_change` along the identity."""
    if not ch.base.maximal_ideal().is_zero():
        return
    want, connect = _base_change(ch, rings.RingMap.identity(ch.base))
    got, eye = res.ch, np.eye(ch.nbar, dtype=np.int64)
    same = (_same_ch(got, want)
            and all(np.array_equal(m, eye) for m in (connect, got.quot.proj.matrix, got.quot.lift_matrix))
            and np.array_equal(res.field.proj.matrix, np.eye(ch.base.n, dtype=np.int64))
            and _same_split(res.split, _residual_split(want.psr)))
    if not same:
        raise InvariantViolation(f"residual of {ch.algebra.name} over a field differs from its base change")


def _check_ordinary_quotient(oq, ctx, *_, **__) -> None:
    """J_R and E_ord against the route through J* (module docstring)."""
    ch = ctx.ch
    j_star, j_r, _ = oracles.ordinary_ideals(ctx.gma, ctx.kappa)
    if not np.array_equal(oq.j_r.basis, j_r.basis):
        raise InvariantViolation(f"J_R of {ch.algebra.name} differs from the ideal of its J* traces")
    if oq.collapsed:
        return
    want, connect = _base_change(ch, oq.base_quot.proj, extra=j_star)
    if not (_same_ch(oq.e_ord, want) and np.array_equal(oq.e_ord.quot.proj.matrix, connect)):
        raise InvariantViolation(f"ordinary quotient of {ch.algebra.name} differs from the one that kills J*")


def _check_tower(t, *_, **__) -> None:
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
    H = t.H
    p, k = H.p, H.k
    res = lam.ring.residue_log_size
    if towers.ideal_colength(lam, t.I) != t.r:
        raise InvariantViolation("h/I is not the expected base quotient")
    if (H.k * H.n - oracles.tower_augmentation(t)[2].log_size()) != t.r * res:
        raise InvariantViolation("H/I_H is not the expected base quotient")
    # ker(H -> base) is I in disguise
    img = linalg.howell_form((t.script_I.basis @ t.pr_h.matrix) % t.h.char, p, k, ncols=t.h.n)
    if not linalg.span_equal(img, t.I.basis) or t.script_I.log_size() != t.I.log_size():
        raise InvariantViolation("ker(H -> base) does not match the Eisenstein ideal")
    # mutual annihilation: exact containments, and Ann(ker(H -> h)) inside the window
    ann_ker = t.ker_h.annihilator()
    if not t.script_I.annihilator().contains_ideal(t.ker_h):
        raise InvariantViolation("ker(H -> h) fails to annihilate ker(H -> base)")
    if not ann_ker.contains_ideal(t.script_I):
        raise InvariantViolation("ker(H -> base) fails to annihilate ker(H -> h)")
    tail = rings.Ideal(H, t.emb_H(lam.t(lam.trunc - t.glue)).reshape(1, -1))
    if not linalg.span_equal(ann_ker.add_ideal(tail).basis, t.script_I.add_ideal(tail).basis):
        raise InvariantViolation("Ann(ker(H -> h)) exceeds its partner beyond the truncation tail")


def _check_picks(picked, ring, full, g) -> None:
    if not np.array_equal(picked, oracles.loop_min_module_rows(ring, full, g)):
        raise InvariantViolation("Nakayama picks differ from one pick at a time")
    if full.shape[0] == 0:
        return
    # d picks that generate M, which Nakayama implies (`towers` module docstring)
    p, k, width = ring.p, ring.k, g * ring.n
    mm = linalg.howell_form(modules.maximal_multiples(ring, full, g), p, k, ncols=width)
    d = (linalg.span_log_size(full, p, k) - linalg.span_log_size(mm, p, k)) // ring.residue_log_size
    span = linalg.howell_form(ring.orbit(picked, g), p, k, ncols=width)
    if len(picked) != d or not linalg.span_equal(span, full):
        raise InvariantViolation("selected rows fail to generate the relation module")


def _check_ch(ch, *_, **__) -> None:
    oracles.verify_ch(ch)


_SPLIT_BUDGET = 200000  # the oracle's enumeration budget, the scenarios' default


def _check_reducibility(red, g, *_, **__) -> None:
    """The corner characters against the laws and against the root search."""
    q, cert = red["quotient"], red["certificate"]
    if g.ch is None or q.ring.n == 0:
        return
    psr, qr = g.ch.psr, q.ring
    for chi in cert["chars"]:
        if chi.ring is not qr or chi.domain != tuple(range(psr.group.m)):
            raise InvariantViolation(f"{chi.name} is not a character of {qr.name} on the whole group")
        chi.check()
    chi1, chi2 = (np.array([chi(x) for x in chi.domain]) for chi in cert["chars"])
    if not (np.array_equal(q.proj(psr.t), qr.add(chi1, chi2)) and np.array_equal(q.proj(psr.d), qr.mul(chi1, chi2))):
        raise InvariantViolation(f"corner characters of {g.algebra.name} miss t or d modulo the reducibility ideal")
    try:
        want = oracles.split_as_characters(psrep.psrep_base_change(psr, q.proj), _SPLIT_BUDGET)
    except BudgetExceeded:
        return
    got = {chi1.tobytes(), chi2.tobytes()}
    if not want["split"] or got != {np.array([c(x) for x in c.domain]).tobytes() for c in want["chars"]}:
        raise InvariantViolation(f"corner characters of {g.algebra.name} differ from the root search")


CHECKS = {
    (rings, "quotient_ring"): _check_quotient,
    (rings, "fiber_product"): _check_fiber_product,
    (rings, "zmod_ring"): _check_local_data,
    (rings, "field_ring"): _check_local_data,
    (rings, "truncated_poly_ring"): _check_local_data,
    (oracles, "local_ring"): _check_local_data,
    (oracles, "product_ring"): _check_local_data,
    (towers, "_adjoin_x"): lambda out, *_, **__: _check_local_data(out[0]),
    (towers, "axis_algebra"): lambda aug, *_, **__: _check_local_data(aug.ring),
    (gma.ChAlgebra, "residual"): _check_residual,
    (algebras, "_presented_quotient"): lambda quot, *_, **__: quot.ring.check_algebra(),
    (gma, "_ch_algebra"): _check_ch,
    (ordinary, "ordinary_quotient"): _check_ordinary_quotient,
    (towers, "build_eisenstein_tower"): _check_tower,
    (towers, "_min_module_rows"): _check_picks,
    (gma, "reducibility_ideal"): _check_reducibility,
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


def _function(attr):
    """The function an attribute runs: a cached property's own function."""
    return attr.func if isinstance(attr, functools.cached_property) else attr


def _audited(name, call, require, check):
    """`call` with its precondition checked before it runs and its output
    checked, given the arguments, after."""
    @functools.wraps(call)
    def wrapper(*args, **kwargs):
        require(*args, **kwargs)
        out = call(*args, **kwargs)
        check(out, *args, **kwargs)
        AUDITED[name] += 1
        return out

    return wrapper


def _install() -> None:
    modules = [getattr(exalg, name) for name in exalg.__all__ if name.islower()] + [oracles]
    skip = lambda *_, **__: None  # noqa: E731
    wrapped = [(home, name, _audited(name, _function(getattr(home, name)), PRECONDITIONS.get((home, name), skip),
                                     CHECKS.get((home, name), skip)))
               for home, name in dict.fromkeys([*CHECKS, *PRECONDITIONS])]
    for home, name, wrapper in wrapped:
        if isinstance(getattr(home, name), functools.cached_property):
            getattr(home, name).func = wrapper
            continue
        if isinstance(home, type):  # a classmethod: the wrapper calls it bound
            setattr(home, name, staticmethod(wrapper))
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is wrapper.__wrapped__:
                    setattr(module, attr, wrapper)


_install()
