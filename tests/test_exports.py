import importlib
import pkgutil

import rsa_fixpoints


def test_every_exported_name_exists():
    # A stale __all__ entry breaks `from module import *`.
    modules = [rsa_fixpoints] + [
        importlib.import_module(f"rsa_fixpoints.{info.name}")
        for info in pkgutil.iter_modules(rsa_fixpoints.__path__)
        if info.name != "__main__"
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0


def test_readme_quick_start():
    # The calls and outputs of the README's library quick start, verbatim.
    from rsa_fixpoints import (
        enumerate_fixed_points,
        extract_factor_from_fixed_point,
        full_census,
        make_instance,
        period_of_point,
    )

    inst = make_instance(5, 7, 5)
    assert repr(full_census(inst)) == (
        "ExactOrderCensus(k_max=2, unit_counts={1: 8, 2: 16}, all_counts={1: 15, 2: 20})"
    )
    assert repr(period_of_point(2, inst)) == "PeriodRecord(point=2, period=2, component_orders=(4, 3))"
    points = enumerate_fixed_points(inst, 1)
    assert len(points) == 15 and points == sorted(set(points))
    assert extract_factor_from_fixed_point(6, 35) == 5
