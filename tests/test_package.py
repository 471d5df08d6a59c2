"""Package surface: every exported name of every module exists, and every
binding the benchmark's tracer patches by name."""
import importlib
import pkgutil
from pathlib import Path

import pytest

import bifrb
from bifrb.model import ParameterSpace, make_model

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


def test_bench_tracer_counts_the_points_of_every_greedy_sweep(monkeypatch):
    """The tracer counts a sweep's points from its `mus` keyword, else from its
    third positional argument, so the library's traced sweeps must match."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    model = make_model("chafee", mesh_size=21)
    space = ParameterSpace.equispaced(5.0, 15.0, 5)
    tracer = tracing.Tracer("t")
    with tracer.patched():
        _, report = bifrb.greedy.deflated_greedy(model, space)
        bifrb.greedy.adaptive_greedy(model, space)
    for name in tracing.SWEEPS:
        assert tracer.calls[name] > 0 and tracer.counts[name]["points"] > 0, name
    points = tracer.counts["estimators.deflated_estimator_sweep"]["points"]
    assert points == report.n_iterations * len(space)
