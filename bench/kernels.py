"""Mesh-scaling view: single kernels timed one call at a time, plus the
convergence of plain Newton and of root discovery from the default guesses.

A Newton run that stops short and a discovery that misses a root are
recorded as they are (flag 0, iteration count, root count), not retried.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from bifrb import estimators, nlsolve, rom
from bifrb.model import make_model
from bifrb.nlsolve import NewtonConfig

CHAFEE_MU = 12.0   # three coexisting states
BRATU_MU = 1.0     # two coexisting states


def per_call_ms(fn, budget_s: float = 0.3, min_reps: int = 3, max_reps: int = 200) -> float:
    """Median wall time of one call, repeating until `budget_s` is spent."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s
                                    and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _sine_basis(model, n: int = 3) -> rom.BasisMatrix:
    basis = rom.BasisMatrix(model)
    for k in range(1, n + 1):
        basis.enrich(model.interpolate(lambda x: np.sin(k * np.pi * x)))
    return basis


def measure(meshes: dict) -> dict:
    out = {}
    one_step = NewtonConfig(max_iter=1)
    for m in meshes["timing"]:
        model = make_model("chafee", m)
        u = model.default_guess
        basis = _sine_basis(model)
        u_n = basis.project(u)
        out[f"kernel.residual_ms.m{m}"] = per_call_ms(lambda: model.residual(u, CHAFEE_MU))
        out[f"kernel.jacobian_ms.m{m}"] = per_call_ms(lambda: model.jacobian(u, CHAFEE_MU))
        out[f"kernel.newton_step_ms.m{m}"] = per_call_ms(
            lambda: nlsolve.newton(model, CHAFEE_MU, u, one_step))
        out[f"kernel.reduced_newton_step_ms.m{m}"] = per_call_ms(
            lambda: rom.reduced_newton(basis, CHAFEE_MU, u_n, one_step))
    for m in meshes["inf_sup"]:
        model = make_model("chafee", m)
        u = model.default_guess
        out[f"kernel.inf_sup_ms.m{m}"] = per_call_ms(lambda: estimators.inf_sup(model, u, CHAFEE_MU))
    for kind, mu in (("chafee", CHAFEE_MU), ("bratu", BRATU_MU)):
        for m in meshes["newton"]:
            model = make_model(kind, m)
            result = nlsolve.newton(model, mu, model.default_guess)
            out[f"kernel.newton_converged.{kind}.m{m}"] = int(result.converged)
            out[f"kernel.newton_iters.{kind}.m{m}"] = result.iterations
    for m in meshes["roots"]:
        model = make_model("bratu", m)
        roots = nlsolve.discover_solutions(model, BRATU_MU, model.default_guesses)
        out[f"kernel.bratu_roots.m{m}"] = len(roots)
    return out
