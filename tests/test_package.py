"""The package's public surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import fracsol

MODULES = sorted(f"fracsol.{m.name}" for m in pkgutil.iter_modules(fracsol.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks `from module import *` and every tool that
    # walks the exports, such as the benchmark's tracer
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_modules_are_found():
    assert {"fracsol.functionals", "fracsol.io", "fracsol.kp", "fracsol.spectral"} <= set(MODULES)
