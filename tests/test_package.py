"""Package surface: every exported name of every module exists, and every
binding the benchmark's tracer patches by name."""
import importlib
import pkgutil
from pathlib import Path

import pytest

import bifrb

MODULES = ["bifrb"] + [f"bifrb.{m.name}" for m in pkgutil.iter_modules(bifrb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_bench_tracer_patches_and_restores(monkeypatch):
    """The benchmark wraps library functions and methods by name; a rename or
    deletion on the library side breaks `bench/run.py --trace 1`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer("t").patched():
        newton = bifrb.nlsolve.newton.__wrapped__
        jacobian = bifrb.model.ParametricModel.jacobian.__wrapped__
    assert bifrb.nlsolve.newton is newton
    assert bifrb.model.ParametricModel.jacobian is jacobian
