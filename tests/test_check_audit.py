"""The audit hook of `conftest.py` reaches every constructor it wraps.

Five constructors skip checks that their own checks imply, and the hook
runs those checks on everything the tests build.  One tower unit and one
psrep unit must pass through all five, and no `exalg` module may keep a
binding to an unwrapped constructor, or what it builds would go unaudited.
"""

import conftest

import exalg
from exalg import scenarios


def test_one_tower_and_one_psrep_unit_reach_every_audited_constructor():
    before = dict(conftest.AUDITED)
    for name in ("plane-tower-r2", "diag-ordinary"):
        assert scenarios.run_scenario(name).verdict == "ok"
    names = {name for _, name in conftest.CHECKS}
    assert names == {"quotient_ring", "fiber_product", "_presented_quotient", "_ch_algebra", "build_eisenstein_tower"}
    assert all(conftest.AUDITED[name] > before.get(name, 0) for name in names), dict(conftest.AUDITED)


def test_every_binding_of_an_audited_constructor_is_wrapped():
    modules = {name: getattr(exalg, name) for name in exalg.__all__ if name.islower()}
    seen = set()
    for home, name in conftest.CHECKS:
        wrapper = getattr(home, name)
        for module_name, module in modules.items():
            for attr, value in vars(module).items():
                assert value is not wrapper.__wrapped__, f"{module_name}.{attr} is unaudited"
                if value is wrapper:
                    seen.add((module_name, attr))
    # the modules that call each constructor by a name of their own
    assert {("towers", "quotient_ring"), ("towers", "fiber_product"), ("ordinary", "quotient_ring"),
            ("gma", "quotient_ring"), ("gma", "_presented_quotient")} <= seen
