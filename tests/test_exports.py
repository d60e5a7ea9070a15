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
