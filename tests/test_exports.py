"""Every name a module lists in ``__all__`` is an attribute of it."""

import importlib
import pkgutil

import pytest

import tailsum

MODULES = ["tailsum"] + sorted(f"tailsum.{info.name}"
                               for info in pkgutil.iter_modules(tailsum.__path__))
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
