"""The benchmark's seeded workloads and their correctness checks.

``prepare(name, seed)`` builds the models and parameter grids (set-up) and
returns a callable that runs one pass of the workload and checks it against
fixed analytic references, never against values read back from a run.

The seed jitters every interior grid point by up to a quarter of the grid
spacing; seed 0 gives the equispaced grids of the README and the acceptance
tests.  Endpoints never move.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from bifrb import analysis, greedy
from bifrb.greedy import AdaptiveConfig, GreedyConfig, GreedyStatus
from bifrb.model import ParameterSpace, make_model
from metrics import WORKLOADS

PI_SQ = math.pi ** 2           # chafee pitchfork
BRATU_FOLD = 3.513830719       # bratu fold
# Grid points this close to a critical value are solved but not checked.
CRITICAL_MARGIN = 0.05
OFFLINE_TOL = 1e-3
OFFLINE_BASIS_N = 3


@dataclass(frozen=True)
class Sizes:
    mesh: int = 201
    oracle_points: int = 41        # per model
    offline_train: int = 51
    critical_train: int = 4
    critical_n_ref: int = 16


@dataclass
class Outcome:
    """Checks of one pass plus the quality figures it produced."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=lambda: {
        "basis_n": 0, "max_delta": 0.0, "mu_bif_err.chafee": 0.0, "mu_bif_err.bratu": 0.0})

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def jittered_grid(lower: float, upper: float, n: int, rng) -> np.ndarray:
    pts = np.linspace(lower, upper, n)
    if rng is not None and n > 2:
        pts[1:-1] += rng.uniform(-0.25, 0.25, n - 2) * (upper - lower) / (n - 1)
    return pts


def local_cell(points, mu: float) -> float:
    """Largest grid interval adjacent to the point nearest mu."""
    pts = np.sort(np.asarray(points, dtype=float))
    i = int(np.argmin(np.abs(pts - mu)))
    return float(max(pts[min(i + 1, len(pts) - 1)] - pts[i], pts[i] - pts[max(i - 1, 0)]))


def prepare(name: str, seed: int, sizes: Sizes = Sizes()):
    """Set up workload `name` and return its zero-argument pass function."""
    rng = np.random.default_rng(seed) if seed else None
    chafee = make_model("chafee", sizes.mesh)
    bratu = make_model("bratu", sizes.mesh)
    # The L4 embedding constant is computed lazily once per model; fill the
    # cache here so every timed pass does the same work.
    chafee.embedding_constant(4)
    if name == "oracle":
        cases = [(chafee, jittered_grid(5.0, 15.0, sizes.oracle_points, rng), PI_SQ,
                  lambda mu: 1 if mu < PI_SQ else 3),
                 (bratu, jittered_grid(0.5, 3.6, sizes.oracle_points, rng), BRATU_FOLD,
                  lambda mu: 2 if mu < BRATU_FOLD else 0)]
        return lambda: _oracle(cases)
    if name == "offline":
        space = ParameterSpace(5.0, 15.0, tuple(jittered_grid(5.0, 15.0, sizes.offline_train, rng)))
        return lambda: _offline(chafee, space)
    if name == "critical":
        cases = [(chafee, "chafee", PI_SQ,
                  ParameterSpace(5.0, 15.0, tuple(jittered_grid(5.0, 15.0, sizes.critical_train, rng)))),
                 (bratu, "bratu", BRATU_FOLD,
                  ParameterSpace(0.5, 3.5, tuple(jittered_grid(0.5, 3.5, sizes.critical_train, rng))))]
        return lambda: _critical(cases, sizes.critical_n_ref)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _oracle(cases) -> Outcome:
    """Root count at every grid point against the analytic branch count."""
    out = Outcome()
    for model, grid, critical, expected in cases:
        ensemble = analysis.solution_ensemble(model, grid)
        found = Counter(p.mu for p in ensemble.points)
        for mu in grid:
            if abs(mu - critical) <= CRITICAL_MARGIN:
                out.attempted += 1
                continue
            out.check(found[mu] == expected(mu),
                      f"{model.kind.value} mu={mu:.6f}: {found[mu]} roots, expected {expected(mu)}")
    return out


def _offline(model, space) -> Outcome:
    out = Outcome()
    basis, report = greedy.deflated_greedy(model, space, GreedyConfig(tol=OFFLINE_TOL))
    max_delta = report.records[-1].max_delta
    out.quality.update({"basis_n": basis.n, "max_delta": max_delta})
    out.check(report.status is GreedyStatus.TOLERANCE_MET and basis.n == OFFLINE_BASIS_N
              and max_delta <= OFFLINE_TOL,
              f"deflated greedy: status {report.status.value}, n={basis.n}, "
              f"max_delta={max_delta:.3e}")
    return out


def _critical(cases, n_ref: int) -> Outcome:
    """Detected critical parameter of each model against its analytic value."""
    out = Outcome()
    for model, key, critical, space in cases:
        basis, report = greedy.adaptive_greedy(model, space, GreedyConfig(tol=1e-6, n_max=25),
                                               AdaptiveConfig(n_ref=n_ref))
        err = abs(report.mu_bif - critical)
        limit = local_cell(report.train_final, report.mu_bif) if key == "chafee" else CRITICAL_MARGIN
        out.quality["basis_n"] += basis.n
        out.quality["max_delta"] = max(out.quality["max_delta"], report.records[-1].max_delta)
        out.quality[f"mu_bif_err.{key}"] = err
        out.check(err <= limit, f"{key}: mu*={report.mu_bif:.6f}, error {err:.3e} > {limit:.3e}")
    return out
