"""Post-processing: labeled bifurcation diagrams, certified error sweeps,
convergence tables, and CSV export.

Branch bookkeeping runs on the scalar midpoint value of each solution.  It is
cheap, it separates the branches of both bundled models everywhere except at
the critical point itself, and it lets full-order and reduced solutions be
matched without assuming either side found its roots in the same order.
Matches whose midpoint values are nearly tied are flagged rather than trusted.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .estimators import nonlinear_estimate, reduced_branches
from .model import ParametricModel
from .nlsolve import NewtonConfig, continuation, discover_solutions
from .rom import NULL_TOL, BasisMatrix

__all__ = [
    "MATCH_AMBIGUITY_TOL",
    "BranchPoint", "SolutionEnsemble", "solution_ensemble",
    "relative_error", "ErrorRow", "ErrorSweep", "error_sweep", "error_vs_n",
    "write_csv", "diagram_csv", "errors_csv",
]

# Two candidate matches closer than this in midpoint value are ambiguous.
MATCH_AMBIGUITY_TOL = 1e-6


# -- branch-labeled solution sets ------------------------------------------


@dataclass
class BranchPoint:
    """One full-order solution with its branch label and midpoint value."""

    mu: float
    branch: int
    u: np.ndarray
    value: float


class SolutionEnsemble:
    """Branch-labeled full-order solutions over a parameter grid."""

    def __init__(self, model: ParametricModel, points: list[BranchPoint]):
        self.model = model
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def at(self, mu: float) -> list[BranchPoint]:
        return [p for p in self.points if p.mu == mu]

    def branches(self) -> list[int]:
        return sorted({p.branch for p in self.points})

    def by_branch(self) -> dict[int, list[np.ndarray]]:
        out: dict[int, list[np.ndarray]] = {}
        for p in self.points:
            out.setdefault(p.branch, []).append(p.u)
        return {k: out[k] for k in sorted(out)}

    def mus(self) -> list[float]:
        seen: list[float] = []
        for p in self.points:
            if not seen or p.mu != seen[-1]:
                seen.append(p.mu)
        return seen


def _assign_labels(values: list[float], prev: list[BranchPoint],
                   next_label: int) -> tuple[list[int], int]:
    """Thread branch labels by nearest midpoint value against the previous
    parameter; unmatched roots open fresh labels, and labels are never reused
    so a branch that dies stays dead."""
    labels: list[int | None] = [None] * len(values)
    pairs = sorted(
        (abs(v - p.value), i, p.branch)
        for i, v in enumerate(values) for p in prev
    )
    used: set[int] = set()
    for _, i, branch in pairs:
        if labels[i] is None and branch not in used:
            labels[i] = branch
            used.add(branch)
    for i in range(len(values)):
        if labels[i] is None:
            labels[i] = next_label
            next_label += 1
    return labels, next_label


def solution_ensemble(model: ParametricModel, mus,
                      cfg: NewtonConfig | None = None) -> SolutionEnsemble:
    """Deflated discovery swept over the grid with continuation.

    At each parameter every previous root is continued by one solve, and the
    model battery runs where a branch can be born, as the Morse indices of
    the roots tell (`nlsolve.continuation`), so established branches are
    tracked and new ones are opened as deflation exposes them.
    """
    cfg = cfg or NewtonConfig()
    points: list[BranchPoint] = []
    prev: list[BranchPoint] = []
    next_label = 0

    def solve_at(mu, guesses, roots, drive):
        return discover_solutions(model, mu, guesses, cfg, roots, drive)

    for mu, roots in continuation(solve_at, mus, model.default_guesses, count=model.morse_index):
        values = [model.midpoint_value(u) for u in roots]
        labels, next_label = _assign_labels(values, prev, next_label)
        here = [BranchPoint(mu, lab, u, v)
                for lab, u, v in zip(labels, roots, values)]
        here.sort(key=lambda p: p.branch)
        points.extend(here)
        prev = here
    return SolutionEnsemble(model, points)


# -- errors ----------------------------------------------------------------


def relative_error(model: ParametricModel, u_ref: np.ndarray,
                   u_approx: np.ndarray) -> float:
    """X-norm error relative to the reference; absolute when the reference
    itself is numerically zero (X-norm at most `rom.NULL_TOL`)."""
    ref_norm = model.x_norm(u_ref)
    err = model.x_norm(np.asarray(u_approx) - np.asarray(u_ref))
    if ref_norm <= NULL_TOL:
        return err
    return err / ref_norm


@dataclass
class ErrorRow:
    mu: float
    branch: int
    reduced_error: float
    projection_error: float
    estimator: float
    error_kind: str = "relative"  # "absolute" when the reference is zero
    flag: str = ""  # "", "diverged", "match_ambiguous", "match_reused"

    def to_dict(self) -> dict:
        return {
            "mu": self.mu, "branch": self.branch,
            "reduced_error": self.reduced_error,
            "projection_error": self.projection_error,
            "estimator": self.estimator,
            "error_kind": self.error_kind, "flag": self.flag,
        }


class ErrorSweep:
    """Branch-matched test errors of a reduced basis against an ensemble."""

    def __init__(self, rows: list[ErrorRow]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def unflagged(self) -> list[ErrorRow]:
        return [r for r in self.rows if not r.flag]

    def flagged(self) -> list[ErrorRow]:
        return [r for r in self.rows if r.flag]

    def max_reduced(self, branch: int | None = None,
                    unflagged_only: bool = True) -> float:
        rows = self.unflagged() if unflagged_only else self.rows
        if branch is not None:
            rows = [r for r in rows if r.branch == branch]
        return max((r.reduced_error for r in rows), default=0.0)

    def avg_reduced(self, unflagged_only: bool = True) -> float:
        rows = self.unflagged() if unflagged_only else self.rows
        if not rows:
            return 0.0
        return sum(r.reduced_error for r in rows) / len(rows)


def _match_flags(dists_per_ref: list[list[float]],
                 matches: list[int], n_roots: int) -> list[str]:
    flags = [""] * len(matches)
    for k, dists in enumerate(dists_per_ref):
        if len(dists) >= 2:
            best, second = sorted(dists)[:2]
            if second - best < MATCH_AMBIGUITY_TOL:
                flags[k] = "match_ambiguous"
    if n_roots >= 2:
        counts = {i: matches.count(i) for i in set(matches)}
        for k, i in enumerate(matches):
            if counts[i] > 1 and not flags[k]:
                flags[k] = "match_reused"
    return flags


def error_sweep(model: ParametricModel, basis: BasisMatrix, mus,
                oracle: SolutionEnsemble, cfg: NewtonConfig | None = None,
                deflate: bool = True) -> ErrorSweep:
    """Reduced vs full-order errors over a test grid, matched per branch.

    The reduced roots at each parameter are those of
    `estimators.reduced_branches`.  With deflate on, that is every reduced
    root reachable from the carried roots and the projected battery, and
    each reference branch is matched to the reduced root with the nearest
    midpoint value.  A reduced root connected to no tracked reduced branch (a
    spurious isola of the basis) is found, and flagged by the matching, only
    at the parameters where the battery runs; elsewhere it goes unscored.
    With deflate off a single continuation-seeded solve stands in for all
    branches, which is the honest way to score a basis built by a
    single-branch method.  Each row also carries the best-approximation
    projection error and the a-posteriori bound evaluated at the matched
    reduced solution.  An empty basis scores the zero state without a solve;
    references left without a reduced root are "diverged".
    """
    cfg = cfg or NewtonConfig()
    rows: list[ErrorRow] = []
    tested = [mu for mu in mus if oracle.at(mu)]
    branches = (reduced_branches(model, basis, tested, cfg, deflate) if basis.n
                else ((mu, []) for mu in tested))
    for mu, roots in branches:
        refs = oracle.at(mu)
        lifted = [basis.lift(r) for r in roots]
        values = [model.midpoint_value(u) for u in lifted]
        bounds: dict[int, float] = {}
        dists_per_ref = [[abs(v - p.value) for v in values] for p in refs]
        matches = [int(np.argmin(d)) if roots else None for d in dists_per_ref]
        flags = _match_flags(dists_per_ref, matches, len(roots))
        for p, i, flag in zip(refs, matches, flags):
            kind = "absolute" if model.x_norm(p.u) <= NULL_TOL else "relative"
            proj = relative_error(model, p.u, basis.lift(basis.project(p.u)))
            if i is None:
                red, flag = (proj, "") if basis.n == 0 else (math.inf, "diverged")
                rows.append(ErrorRow(mu, p.branch, red, proj, math.inf, kind, flag))
                continue
            if i not in bounds:
                est = nonlinear_estimate(model, lifted[i], mu)
                bounds[i] = est.delta_brr if math.isfinite(est.delta_brr) else est.delta_lin
            red = relative_error(model, p.u, lifted[i])
            rows.append(ErrorRow(mu, p.branch, red, proj, bounds[i], kind, flag))
    rows.sort(key=lambda r: (r.mu, r.branch))
    return ErrorSweep(rows)


def error_vs_n(model: ParametricModel, basis: BasisMatrix, mus,
               oracle: SolutionEnsemble, cfg: NewtonConfig | None = None,
               deflate: bool = True) -> list[dict]:
    """Worst and mean unflagged test error of the first n columns of the
    nested `basis`, for n = 1 .. basis.n."""
    table = []
    for n in range(1, basis.n + 1):
        sweep = error_sweep(model, basis.truncated(n), mus, oracle, cfg, deflate)
        table.append({
            "n": n,
            "max_error": sweep.max_reduced(),
            "avg_error": sweep.avg_reduced(),
            "n_flagged": len(sweep.flagged()),
        })
    return table


# -- CSV export ------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> None:
    """Deterministic CSV: fixed column order, floats at full precision, no
    timestamps or environment leakage."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


def diagram_csv(path, ens: SolutionEnsemble) -> None:
    """The scalar diagram of `ens`: (mu, branch, midpoint value) rows sorted by
    (mu, branch)."""
    rows = sorted(({"mu": p.mu, "branch": p.branch, "value": p.value} for p in ens.points),
                  key=lambda r: (r["mu"], r["branch"]))
    write_csv(path, ["mu", "branch", "value"], rows)


def errors_csv(path, sweep: ErrorSweep) -> None:
    write_csv(path, ["mu", "branch", "reduced_error", "projection_error",
                     "estimator", "error_kind", "flag"],
              [r.to_dict() for r in sweep.rows])
