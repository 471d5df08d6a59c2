"""Package surface: every exported name of every module exists."""
import importlib
import pkgutil

import pytest

import bifrb

MODULES = ["bifrb"] + [f"bifrb.{m.name}" for m in pkgutil.iter_modules(bifrb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
