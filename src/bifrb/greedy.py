"""Greedy sampling strategies for building certified reduced bases.

All three variants run one loop (`_greedy`): it takes the first snapshot and
owns the basis, then sweeps the training set with an error estimator, picks
the worst-certified entry, computes a full-order snapshot there, and
enriches the basis.  They differ only in its hooks, which receive the basis.
`GreedyConfig` and `AdaptiveConfig` refuse invalid values when they are built.

* The plain variant runs one reduced solve per parameter, tracks a single
  solution family and solves at full order from the model's default guess.
* The adaptive variant additionally locates the parameter minimizing the
  inf-sup constant after every enrichment and refines the training grid
  around it, so a coarse initial grid sharpens itself near the critical
  point.  The first refinement is unconditional; afterwards refinement fires
  only while the minimizer keeps moving by more than the similarity
  tolerance, since consecutive minimizers on an unchanged grid coincide and
  would otherwise block the procedure from ever engaging.
* The deflated variant sweeps all reduced branches deflation can reach,
  selects the worst (parameter, branch) pair, seeds the full-order solve
  with the lifted reduced solution of that branch, and afterwards harvests
  every additional root at the selected parameter into the basis: the
  model's guess battery is driven against the snapshot root
  (`discover_solutions`, the full-order discovery of the oracle).  Only
  the basis carries over from one of its iterations to the next.

Iterations that add no column (the snapshot already lies in the span) fall
through to the next-ranked entry; exhausting all candidates above tolerance
aborts with a stagnation status.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .estimators import (EstimatorKind, EstimatorSet, argmin_beta, beta_sweep,
                         deflated_estimator_sweep, estimator_sweep)
from .model import ParameterSpace, ParametricModel
from .nlsolve import NewtonConfig, _refuse, discover_solutions, newton
from .rom import BasisMatrix

__all__ = [
    "GreedyStatus",
    "GreedyConfig",
    "AdaptiveConfig",
    "IterationRecord",
    "GreedyReport",
    "vanilla_greedy",
    "refinement",
    "adaptive_greedy",
    "deflated_snapshots",
    "deflated_greedy",
]


# Significant digits of the error bound that rank greedy candidates.
TIE_DIGITS = 8


class GreedyStatus(str, Enum):
    TOLERANCE_MET = "tolerance_met"
    N_MAX_REACHED = "n_max_reached"
    STAGNATION = "stagnation"


@dataclass(frozen=True)
class GreedyConfig:
    n_max: int = 35
    tol: float = 1e-3
    estimator_kind: EstimatorKind = EstimatorKind.AUTO_SWITCH
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        problems = []
        if not self.n_max >= 1:
            problems.append(f"n_max must be >= 1 (got {self.n_max})")
        if not 0.0 < self.tol < math.inf:
            problems.append(f"tol must be positive and finite (got {self.tol})")
        try:
            object.__setattr__(self, "estimator_kind", EstimatorKind(self.estimator_kind))
        except ValueError as exc:
            problems.append(str(exc))
        _refuse(problems)


@dataclass(frozen=True)
class AdaptiveConfig:
    n_ref: int = 4  # points inserted per refinement
    bif_tol: float = 1e-2  # similarity tolerance on consecutive minimizers

    def __post_init__(self):
        problems = []
        if not self.n_ref >= 1:
            problems.append(f"n_ref must be >= 1 (got {self.n_ref})")
        if not 0.0 < self.bif_tol < math.inf:
            problems.append(f"bif_tol must be positive and finite (got {self.bif_tol})")
        _refuse(problems)


@dataclass
class IterationRecord:
    iteration: int
    n_basis: int
    train_size: int
    max_delta: float
    kind_used: str
    mu_selected: float | None = None
    branch_selected: int | None = None
    enrich_status: str = ""
    snapshot_growth: int = 0  # columns added by the root-harvest stage
    reselections: int = 0
    mu_bif: float | None = None
    skipped: list = field(default_factory=list)  # (mu, branch, reason)

    def to_dict(self) -> dict:
        return {**asdict(self), "skipped": [list(s) for s in self.skipped]}


@dataclass
class GreedyReport:
    strategy: str
    status: GreedyStatus
    mu0: float
    mu0_note: str | None
    records: list[IterationRecord]
    sweeps: list[list[dict]]  # per-iteration estimator rows, CSV schema
    mu_bif: float | None = None
    train_final: tuple = ()

    @property
    def n_iterations(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "status": self.status.value,
            "mu0": self.mu0,
            "mu0_note": self.mu0_note,
            "mu_bif": self.mu_bif,
            "n_iterations": self.n_iterations,
            "train_final": [float(m) for m in self.train_final],
            "records": [r.to_dict() for r in self.records],
        }


def _initialize(model: ParametricModel, space: ParameterSpace,
                cfg: GreedyConfig) -> tuple[BasisMatrix, float, str | None]:
    """First snapshot: `_default_guess_snapshot` at mu0; scan outward on failure.

    mu0 is the training endpoint on the model's uniqueness side.  Parameters
    whose solve diverges or whose snapshot is null (a model whose
    uniqueness-side solution is the zero state yields nothing enrichable) are
    skipped, moving to the next-nearest training parameter until a snapshot
    sticks.  The report notes when the scan moved off mu0.
    """
    pts = list(space.train_points)
    start = pts[0] if model.uniqueness_side == "lower" else pts[-1]
    basis = BasisMatrix(model)
    for rejected, mu in enumerate(sorted(pts, key=lambda p: (abs(p - start), p))):
        if not isinstance(_default_guess_snapshot(model, basis, cfg.newton, mu), str):
            note = None if rejected == 0 else (
                f"initialized at mu={mu:g} after {rejected} unusable "
                f"candidates starting from mu0={start:g}")
            return basis, mu, note
    raise RuntimeError("no training parameter produced a usable initial snapshot")


def _ranked_candidates(sweep: EstimatorSet, tol: float, sampled: list) -> list:
    """Entries above tolerance, worst first.

    Bounds equal to TIE_DIGITS significant digits tie: the mirror branches
    of a symmetric model agree in delta to about 13 digits, and roundoff
    must not choose between them.  Ties (infinite bounds mostly) break
    toward the parameter farthest from the already-sampled ones, then
    toward smaller parameter values, then toward the lower branch index.
    """
    known = [s for s in sampled if s is not None]

    def key(e):
        dist = min((abs(e.mu - s) for s in known), default=math.inf)
        return (-float(f"{e.delta:.{TIE_DIGITS - 1}e}"), -dist, e.mu, e.branch)

    return sorted((e for e in sweep if e.delta > tol), key=key)


def _record(records: list, basis: BasisMatrix, space: ParameterSpace,
            sweep: EstimatorSet, **fields) -> None:
    """Append the record of the next iteration, which ends in this state."""
    records.append(IterationRecord(len(records) + 1, basis.n, len(space),
                                   sweep.max_delta, sweep.kind_used.value, **fields))


def _greedy(strategy: str, model: ParametricModel, space: ParameterSpace,
            cfg: GreedyConfig, sweep, snapshot, refine=None) -> tuple[BasisMatrix, GreedyReport]:
    """The sampling loop shared by the three strategies.

    It takes the first snapshot (`_initialize`) and owns the basis, which
    every hook receives.  `sweep(basis, space)` estimates the basis over the
    training set.  `snapshot(basis, entry)` tries to enrich the basis from
    one ranked entry and returns (enrich_status, columns harvested besides
    the snapshot) or, when the basis did not grow, the reason as a string.
    `refine(basis, space, mu_bif)` runs after every enrichment and returns
    the next training space and critical-point estimate, which the
    iteration's record carries.
    """
    basis, mu0, note = _initialize(model, space, cfg)
    records: list[IterationRecord] = []
    sweeps: list[list[dict]] = []
    mu_bif: float | None = None
    while True:
        estimates = sweep(basis, space)
        sweeps.append(estimates.rows())
        if estimates.max_delta <= cfg.tol or basis.n >= cfg.n_max:
            status = (GreedyStatus.TOLERANCE_MET if estimates.max_delta <= cfg.tol
                      else GreedyStatus.N_MAX_REACHED)
            _record(records, basis, space, estimates, enrich_status=status.value)
            break
        skipped: list = []
        for entry in _ranked_candidates(estimates, cfg.tol, basis.mu_values):
            outcome = snapshot(basis, entry)
            if not isinstance(outcome, str):
                break
            skipped.append((entry.mu, entry.branch, outcome))
        else:
            status = GreedyStatus.STAGNATION
            _record(records, basis, space, estimates,
                    enrich_status=status.value, skipped=skipped)
            break
        if refine is not None:
            space, mu_bif = refine(basis, space, mu_bif)
        enrich_status, harvested = outcome
        _record(records, basis, space, estimates, mu_selected=entry.mu,
                branch_selected=entry.branch, enrich_status=enrich_status,
                snapshot_growth=harvested, reselections=len(skipped),
                mu_bif=mu_bif, skipped=skipped)
    return basis, GreedyReport(strategy, status, mu0, note, records, sweeps, None,
                               space.train_points)


def _default_guess_snapshot(model: ParametricModel, basis: BasisMatrix,
                            cfg: NewtonConfig, mu: float):
    """Solve at mu from the default guess and enrich: the single-branch snapshot."""
    result = newton(model, mu, model.default_guess, cfg)
    if not result.converged:
        return f"hf_{result.cause}"
    enr = basis.enrich(result.u, mu)
    if not enr.enriched:
        return f"gs_{enr.cause}"
    return "enriched", 0


def _single_branch_hooks(model: ParametricModel, cfg: GreedyConfig):
    """(sweep, snapshot) of the plain and adaptive strategies: one reduced
    solve per parameter, full-order snapshots from the default guess."""
    return (lambda basis, sp: estimator_sweep(model, basis, sp.train_points, cfg.newton,
                                              cfg.estimator_kind),
            lambda basis, entry: _default_guess_snapshot(model, basis, cfg.newton, entry.mu))


def vanilla_greedy(model: ParametricModel, space: ParameterSpace,
                   cfg: GreedyConfig | None = None) -> tuple[BasisMatrix, GreedyReport]:
    """Single-branch greedy: worst estimator entry picks the next snapshot."""
    cfg = cfg or GreedyConfig()
    return _greedy("vanilla", model, space, cfg, *_single_branch_hooks(model, cfg))


def refinement(space: ParameterSpace, mu_bif: float, mu_prev: float | None,
               n_ref: int, tol: float) -> ParameterSpace:
    """Insert n_ref equispaced points between the train-set neighbors of mu_bif.

    No-op when the minimizer moved by at most `tol` since the previous call
    (the similarity criterion); with mu_prev None the guard is vacuous.  At
    the ends of the training set only the single adjacent interval is
    refined.
    """
    if mu_prev is not None and abs(mu_bif - mu_prev) <= tol:
        return space
    pts = space.train_points
    idx = int(np.argmin([abs(p - mu_bif) for p in pts]))
    if abs(pts[idx] - mu_bif) > max(1e-12, 1e-12 * (space.upper - space.lower)):
        raise ValueError(f"mu_bif={mu_bif:g} is not a training parameter")
    lo = pts[idx - 1] if idx > 0 else pts[idx]
    hi = pts[idx + 1] if idx + 1 < len(pts) else pts[idx]
    inserted = np.linspace(lo, hi, n_ref + 2)[1:-1]
    return space.with_points(inserted)


def adaptive_greedy(model: ParametricModel, space: ParameterSpace,
                    cfg: GreedyConfig | None = None,
                    acfg: AdaptiveConfig | None = None) -> tuple[BasisMatrix, GreedyReport]:
    """Greedy with training-set refinement around the inf-sup minimizer.

    After every enrichment the inf-sup constant is swept over the current
    training set at the continuation branch's reduced solutions; its argmin
    approximates the critical parameter and steers grid refinement.  The
    final report carries the last minimizer as the detected critical point.
    """
    cfg = cfg or GreedyConfig()
    acfg = acfg or AdaptiveConfig()

    def critical_point(basis: BasisMatrix, mus) -> float:
        return argmin_beta(beta_sweep(model, basis, mus, cfg.newton)).mu

    def refine(basis: BasisMatrix, sp: ParameterSpace, mu_prev: float | None):
        mu_bif = critical_point(basis, sp.train_points)
        return refinement(sp, mu_bif, mu_prev, acfg.n_ref, acfg.bif_tol), mu_bif

    basis, report = _greedy("adaptive", model, space, cfg,
                            *_single_branch_hooks(model, cfg), refine)
    # The last refinement postdates the last minimizer, so detect the critical
    # point once more on the final grid before reporting it.
    report.mu_bif = critical_point(basis, report.train_final)
    return basis, report


def deflated_snapshots(model: ParametricModel, basis: BasisMatrix,
                       cfg: NewtonConfig, entry):
    """Snapshot hook of the deflated strategy: the entry's root, then a harvest.

    The full-order solve starts from the lifted reduced solution of the
    entry's branch (the default guess when it has none), so the snapshot
    lands on the poorly approximated branch.  The model's guess battery is
    then driven against that root (`discover_solutions`), and every further
    root it reaches at the parameter enriches the basis; only genuinely new
    directions grow it.  Returns "hf_<cause>", "no_growth", or the snapshot's
    enrich status and the columns the harvest added.
    """
    guess = basis.lift(entry.u_n) if entry.u_n is not None else model.default_guess
    result = newton(model, entry.mu, guess, cfg)
    if not result.converged:
        return f"hf_{result.cause}"
    n_before = basis.n
    enr = basis.enrich(result.u, entry.mu)
    for root in discover_solutions(model, entry.mu, model.default_guesses, cfg,
                                   [result.u]).roots[1:]:
        basis.enrich(root, entry.mu)
    growth = basis.n - n_before
    if growth == 0:
        return "no_growth"
    return enr.status, growth - (1 if enr.enriched else 0)


def deflated_greedy(model: ParametricModel, space: ParameterSpace,
                    cfg: GreedyConfig | None = None) -> tuple[BasisMatrix, GreedyReport]:
    """Multi-branch greedy: certify every branch deflation can reach.

    Each sweep enumerates all reduced roots per parameter and estimates each
    one; the worst (parameter, branch) pair supplies the next snapshot and
    root harvest (`deflated_snapshots`).  Entries whose enrichment adds
    nothing anywhere fall through to the next-ranked entry.
    """
    cfg = cfg or GreedyConfig()
    return _greedy(
        "deflated", model, space, cfg,
        lambda basis, sp: deflated_estimator_sweep(model, basis, sp.train_points, cfg.newton,
                                                   cfg.estimator_kind),
        lambda basis, entry: deflated_snapshots(model, basis, cfg.newton, entry))
