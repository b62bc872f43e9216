"""Finite groups with marked decomposition and inertia subgroups.

Groups are multiplication tables on indices 0..m-1.  The two marked subsets
model the local data at a fixed prime: a decomposition subgroup and an
inertia subgroup inside it.  Characters take unit values in a finite ring
and may be defined only on a marked subgroup.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InvariantViolation
from .rings import FiniteRing

# Largest group order accepted.  check_group builds an m^3 array, and the
# group algebra over a ring of dimension n has an (m n)^3 table, so an
# order is refused before any table is allocated.
MAX_ORDER = 64


def _require_order(m: int) -> None:
    if m > MAX_ORDER:
        raise InputError(f"group order {m} exceeds the supported maximum {MAX_ORDER}")

__all__ = [
    "MarkedGroup",
    "GroupChar",
    "cyclic_group",
    "dihedral_group",
    "symmetric_3",
    "trivial_char",
    "cyclic_char",
]


class MarkedGroup:
    def __init__(self, table, identity: int = 0, names=None, dp=None, ip=None, name: str = "G"):
        self.table = np.asarray(table, dtype=np.int64)
        m = self.table.shape[0]
        if self.table.shape != (m, m):
            raise InputError("group table must be square")
        _require_order(m)
        self.identity = int(identity)
        self.name = name
        self.names = list(names) if names is not None else [f"g{i}" for i in range(m)]
        if len(self.names) != m:
            raise InputError("need one name per element")
        self.check_group()
        self._inv = self._build_inverses()
        self._set_marks(dp, ip)

    def _set_marks(self, dp, ip) -> None:
        m = self.m
        for label, marks in (("dp", dp), ("ip", ip)):
            if marks is not None and not set(marks) <= set(range(m)):
                raise InputError(f"marks {label} must be group elements in range({m}), got {sorted(set(marks))}")
        self.dp = tuple(sorted(set(dp))) if dp is not None else None
        self.ip = tuple(sorted(set(ip))) if ip is not None else None
        if self.dp is not None and not self.is_subgroup(self.dp):
            raise InputError("decomposition marks are not a subgroup")
        if self.ip is not None:
            if self.dp is None or not set(self.ip) <= set(self.dp):
                raise InputError("inertia marks must sit inside the decomposition marks")
            if not self.is_subgroup(self.ip):
                raise InputError("inertia marks are not a subgroup")

    # ---- structure ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.identity
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def order_of(self, a: int) -> int:
        out, o = a, 1
        while out != self.identity:
            out = self.mul(out, a)
            o += 1
            if o > self.m:
                raise InvariantViolation("element order exceeds group order")
        return o

    def elements(self):
        return range(self.m)

    def check_group(self) -> None:
        m = self.m
        t = self.table
        if t.min() < 0 or t.max() >= m:
            raise InvariantViolation("table entries out of range")
        e = self.identity
        if not (np.array_equal(t[e], np.arange(m)) and np.array_equal(t[:, e], np.arange(m))):
            raise InvariantViolation("identity fails")
        # associativity, fully vectorized
        lhs = t[t]  # lhs[a,b,c] = t[t[a,b], c]
        rhs = t[:, t]  # rhs[a,b,c] = t[a, t[b,c]]
        if not np.array_equal(lhs, rhs):
            raise InvariantViolation("associativity fails")
        for a in range(m):
            if len(set(int(x) for x in t[a])) != m:
                raise InvariantViolation("left translation is not a bijection")

    def _build_inverses(self) -> np.ndarray:
        inv = np.full(self.m, -1, dtype=np.int64)
        for a in range(self.m):
            hits = np.nonzero(self.table[a] == self.identity)[0]
            if hits.size != 1:
                raise InvariantViolation("inverse is not unique")
            inv[a] = hits[0]
        return inv

    # ---- subgroups ---------------------------------------------------

    def subgroup_closure(self, gens) -> tuple[int, ...]:
        seen = {self.identity}
        frontier = [self.identity]
        gens = [int(g) for g in gens]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    def is_subgroup(self, subset) -> bool:
        s = set(int(x) for x in subset)
        if self.identity not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def mark(self, dp, ip) -> "MarkedGroup":
        """This group with dp and ip checked and marked; its checked table and inverses are shared."""
        out = MarkedGroup.__new__(MarkedGroup)
        vars(out).update(vars(self))
        out._set_marks(dp, ip)
        return out

    def __repr__(self):
        marks = ""
        if self.dp is not None:
            marks = f", |Dp|={len(self.dp)}" + (f", |Ip|={len(self.ip)}" if self.ip else "")
        return f"<{self.name}: order {self.m}{marks}>"


# ---- constructors ----------------------------------------------------


def cyclic_group(n: int, name: str | None = None) -> MarkedGroup:
    if n < 1:
        raise InputError("cyclic group order must be positive")
    _require_order(n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return MarkedGroup(table, 0, names, name=name or f"C{n}")


def dihedral_group(n: int, name: str | None = None) -> MarkedGroup:
    """Order 2n: rotations r^i and reflections r^i s, with s r = r^-1 s."""
    if n < 1:
        raise InputError("dihedral parameter must be positive")
    m = 2 * n
    _require_order(m)

    def idx(i, j):
        return i % n + n * (j % 2)

    table = np.zeros((m, m), dtype=np.int64)
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i3 = (i1 - i2) % n if j1 else (i1 + i2) % n
                    table[idx(i1, j1), idx(i2, j2)] = idx(i3, j1 + j2)
    names = [("e" if i == 0 else f"r^{i}" if i > 1 else "r") for i in range(n)]
    names += [("s" if i == 0 else f"r^{i}s" if i > 1 else "rs") for i in range(n)]
    return MarkedGroup(table, 0, names, name=name or f"D{n}")


def symmetric_3() -> MarkedGroup:
    g = dihedral_group(3, name="S3")
    return g


# ---- characters ------------------------------------------------------


class GroupChar:
    """Unit-valued multiplicative character, possibly only on a marked subgroup."""

    def __init__(self, group: MarkedGroup, ring: FiniteRing, values: dict, name: str = "chi"):
        self.group = group
        self.ring = ring
        self.name = name
        self.values = {int(g): np.asarray(v, dtype=np.int64) % ring.char for g, v in values.items()}
        for v in self.values.values():
            v.flags.writeable = False  # so a passed `check` stays passed
        self.domain = tuple(sorted(self.values))
        self._inverses: dict = {}
        self._checked = False

    def __call__(self, g: int) -> np.ndarray:
        if g not in self.values:
            raise InputError(f"character {self.name} is undefined at element {g}")
        return self.values[g]

    def inv_value(self, g: int) -> np.ndarray:
        """chi(g)^-1, inverted once per element and kept read-only, since a
        character does not change after it is built."""
        if g not in self._inverses:
            inv = self.ring.inv(self(g))
            inv.flags.writeable = False
            self._inverses[g] = inv
        return self._inverses[g]

    def check(self) -> None:
        """The character laws, run until they first pass: the values are read-only."""
        if self._checked:
            return
        grp, r = self.group, self.ring
        if not grp.is_subgroup(self.domain):
            raise InvariantViolation("character domain is not a subgroup")
        if not np.array_equal(self(grp.identity), r.one):
            raise InvariantViolation("character is not 1 at the identity")
        dom = np.array(self.domain, dtype=np.int64)
        vals = np.zeros((grp.m, r.n), dtype=np.int64)
        vals[dom] = [self.values[a] for a in self.domain]
        ok = (r.mul_outer(vals[dom], vals[dom]) == vals[grp.table[np.ix_(dom, dom)]]).all(axis=2)
        # chi(a) chi(a^-1) = chi(1) = 1 on a row that holds, so only the first
        # failing row can hold a value that is not a unit
        bad = ~ok.all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            a, b = self.domain[row], self.domain[int(np.argmin(ok[row]))]
            if not r.is_unit(self.values[a]):
                raise InvariantViolation(f"character value at {a} is not a unit")
            raise InvariantViolation(f"character fails at ({a},{b})")
        self._checked = True

    def __repr__(self):
        return f"<{self.name}: {len(self.domain)} of {self.group.m} elements, values in {self.ring.name}>"


def trivial_char(group: MarkedGroup, ring: FiniteRing, domain=None, name: str = "1") -> GroupChar:
    dom = domain if domain is not None else range(group.m)
    return GroupChar(group, ring, {g: ring.one.copy() for g in dom}, name=name)


def cyclic_char(
    group: MarkedGroup, ring: FiniteRing, gen: int, value, name: str = "chi"
) -> GroupChar:
    """Character on the cyclic subgroup generated by `gen`, sending gen to `value`."""
    if not 0 <= gen < group.m:
        raise InputError(f"character generator {gen} is not a group element in range({group.m})")
    value = np.asarray(value, dtype=np.int64) % ring.char
    order = group.order_of(gen)
    if not np.array_equal(ring.pow_el(value, order), ring.one):
        raise InputError("value order does not divide the generator order")
    values = {}
    g, v = group.identity, ring.one.copy()
    for _ in range(order):
        values[g] = v.copy()
        g = group.mul(g, gen)
        v = ring.mul(v, value)
    chi = GroupChar(group, ring, values, name=name)
    chi.check()
    return chi
