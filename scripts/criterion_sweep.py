"""Sweep the numerical criterion over the split-branch family and the
stock no-conclusion ring.

For T = L[x]/(x^2 - t^r x) the cotangent length and the congruence
colength both equal r, so the criterion concludes and the isomorphism
and complete-intersection certificates are verified directly.  The
pinched cubic L[x]/(x^3, tx) mapped onto L has cotangent length 1
against colength 0: the hypothesis fails and the report claims nothing.

    python3 scripts/criterion_sweep.py
"""

import numpy as np

from exalg import rings, towers
from exalg.rings import DvrModel, RingMap


def pinched_cubic(o: DvrModel):
    """(base[x]/(x^3, t x), pi killing x): finite local but not flat over
    the base, so a criterion run on it ends without a conclusion."""
    cube = rings.truncated_poly_ring(o.ring, 3, name="tmp")
    nl = o.ring.n
    tx = np.zeros(cube.n, dtype=np.int64)
    tx[nl : 2 * nl] = o.t(1)
    quot = rings.quotient_ring(cube, rings.Ideal(cube, tx.reshape(1, -1)), name=f"{o.ring.name}[x]/(x3,tx)")
    # pi keeps the base coordinates of a lift, which come first in the cube;
    # every multiple of tx is zero there, so any section gives the same pi
    pi = RingMap(quot.ring, o.ring, quot.lift_matrix[:, :nl] % o.ring.char, name="pi")
    pi.check_hom()
    return quot.ring, pi


def main() -> None:
    for p in (3, 5, 7):
        for r in (1, 2, 3):
            o = DvrModel(p, 1, 16)
            t = towers.branch_algebra(o, r)
            rep = towers.lenstra_check(t.ring, RingMap.identity(t.ring), t)
            print(
                f"p={p} r={r}: len(J/J^2)={rep['cotangent_length']} "
                f"len(O/eta)={rep['eta_colength']} met={rep['criterion_met']} "
                f"iso={rep['isomorphism']} ci={rep['complete_intersection']}"
            )

    o = DvrModel(5, 1, 16)
    ring, pi = pinched_cubic(o)
    rep = towers.lenstra_check(ring, pi, towers.base_algebra(o))
    print(
        f"pinched cubic: len(J/J^2)={rep['cotangent_length']} "
        f"len(O/eta)={rep['eta_colength']} met={rep['criterion_met']} "
        f"iso={rep['isomorphism']} ci={rep['complete_intersection']}"
    )


if __name__ == "__main__":
    main()
