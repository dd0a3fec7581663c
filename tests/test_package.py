"""The package's public surface: every name a module exports exists, and the
top level exports exactly the names its re-exported modules list."""

import importlib
import pkgutil
import types

import pytest

import fracsol

MODULES = sorted(f"fracsol.{m.name}" for m in pkgutil.iter_modules(fracsol.__path__))
# the modules whose __all__ fracsol re-exports; io and cli stay submodules
REEXPORTED = ("spectral", "functionals", "ground_state", "verification", "evolution", "kp",
              "errors")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks `from module import *` and every tool that
    # walks the exports, such as the benchmark's tracer
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_modules_are_found():
    assert {"fracsol.functionals", "fracsol.io", "fracsol.kp", "fracsol.spectral"} <= set(MODULES)


def test_top_level_names_are_the_reexported_lists():
    listed = set()
    for module in REEXPORTED:
        listed.update(getattr(importlib.import_module(f"fracsol.{module}"), "__all__", ()))
    public = {name for name, value in vars(fracsol).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - listed == set()  # exported without an __all__ entry
    assert listed - public == set()  # listed but not exported
