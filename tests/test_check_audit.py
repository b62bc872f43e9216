"""The audit hook of `conftest.py` reaches every function it wraps.

Five constructors skip checks that their own checks imply, five ring
constructors carry a residue map that no Frobenius computation checks,
and the residual over a field skips its base change; the hook runs those
checks on everything the tests build, and the Nakayama picks against one
pick at a time.  Three functions take a Howell basis as given, and the
hook checks that precondition on every call.  One tower unit, one psrep
unit and one branch and one axes h-level must pass through all fourteen
functions, and no `exalg` module may keep a binding to an unwrapped
function, or what it builds would go unaudited.
"""

import sys

import conftest
import numpy as np

import exalg
from exalg import linalg, rings, scenarios, towers


def test_one_tower_and_one_psrep_unit_reach_every_audited_constructor():
    before = dict(conftest.AUDITED)
    for name in ("plane-tower-r2", "diag-ordinary"):
        assert scenarios.run_scenario(name).verdict == "ok"
    towers.branch_algebra(rings.DvrModel(5, 1, 8), 2)
    towers.axis_algebra(rings.DvrModel(5, 1, 8), 2)
    names = {name for _, name in conftest.CHECKS}
    assert names == {"quotient_ring", "fiber_product", "_presented_quotient", "_ch_algebra", "build_eisenstein_tower",
                     "_min_module_rows", "zmod_ring", "field_ring", "truncated_poly_ring", "_adjoin_x",
                     "axis_algebra", "residual"}
    takers = {name for _, name in conftest.PRECONDITIONS}
    assert takers == {"from_basis", "smith_form", "_min_module_rows"}
    assert all(conftest.AUDITED[name] > before.get(name, 0) for name in names | takers), dict(conftest.AUDITED)


def test_every_binding_of_an_audited_constructor_is_wrapped():
    modules = {name: getattr(exalg, name) for name in exalg.__all__ if name.islower()}
    seen = set()
    for home, name in [*conftest.CHECKS, *conftest.PRECONDITIONS]:
        wrapper = conftest._function(getattr(home, name))
        for module_name, module in modules.items():
            for attr, value in vars(module).items():
                assert value is not wrapper.__wrapped__, f"{module_name}.{attr} is unaudited"
                if value is wrapper:
                    seen.add((module_name, attr))
    # the modules that call each constructor by a name of their own
    assert {("towers", "quotient_ring"), ("towers", "fiber_product"), ("ordinary", "quotient_ring"),
            ("gma", "quotient_ring"), ("gma", "_presented_quotient")} <= seen


# functions that take a span as its Howell basis, or hold one at hand and
# build an ideal from it: none may hand howell_form a basis to reduce again
TAKES_A_BASIS = {"radical_ideal", "kernel_ideal", "_annihilator", "add_ideal", "mul_ideal",
                 "smith_form", "_smith_coordinates", "_min_module_rows"}


def test_no_howell_basis_is_reduced_again_on_a_tower_unit(monkeypatch):
    """Build, audit and replay of one plane and one axes corpus tower: no
    function of TAKES_A_BASIS hands `howell_form` its own Howell form, and
    the Smith form reduces nothing.  A call from the ideal constructor is
    counted for the function that built the ideal."""
    real, calls = linalg.howell_form, []

    def counted(rows, p, k, ncols=None):
        out = real(rows, p, k, ncols)
        frame = sys._getframe(1)
        if frame.f_code is rings.Ideal.__init__.__code__:
            frame = frame.f_back
        rows = linalg._as_matrix(rows, ncols) % p**k
        if frame.f_code.co_name in TAKES_A_BASIS and rows.shape[0]:
            calls.append((frame.f_code.co_name, rows.shape == out.shape and np.array_equal(rows, out)))
        return out

    monkeypatch.setattr(linalg, "howell_form", counted)
    for p, e, trunc, r, spec in (towers._CORPUS_SPECS[1], towers._CORPUS_SPECS[11]):
        t = towers.build_eisenstein_tower(rings.DvrModel(p, e, trunc), r, dict(spec))
        towers.theorem_audit(t)
        towers.fitting_replay(t)
    assert {"mul_ideal", "add_ideal", "_annihilator", "_min_module_rows"} <= {name for name, _ in calls}
    assert not [name for name, same in calls if same]
    assert not {"smith_form", "_smith_coordinates"} & {name for name, _ in calls}
