"""Newton solvers with deflation for computing multiple coexisting solutions.

Deflation multiplies the residual by m(y) = prod_i (||y - u_i||^-r + sigma)
over previously found roots u_i, which makes those roots repel the iteration.
The modified Newton step never forms the rank-one-corrected Jacobian: by the
Sherman-Morrison identity the deflated step is the plain step delta_u scaled by

    theta = 1 / (1 - <grad m, delta_u> / m),

so each iteration costs one linear solve plus two inner products.  A run
converges when the dual norm of its residual (X^{-1}-norm at full order,
Euclidean on reduced coefficients) drops below `NewtonConfig.tol`, a test
that does not depend on the mesh.  Failure (norm blow-up, non-finite
residual or step, singular Jacobian, stalled deflation factor, iteration
budget, and "no_progress", which ends a deflated attempt with nothing left
to find long before the budget) is reported as a `cause` on the result
object, never as an exception.
Every deflated solve, full-order or reduced, uses r = DEFLATION_POWER = 2 and
sigma = DEFLATION_SHIFT = 1 (Farrell, Birkisson & Funke 2015).

Full-order and reduced solvers share this engine, `_newton_core`, and hand it
one shape of Newton system, (values, residual, step): values(y) is the work an
iterate's residual and Newton step share (the Gauss values of a state at full
order), which the engine evaluates once per iterate, so neither the model nor
the basis holds solver state.  Besides the system the two spaces differ only
in the residual's dual norm and the state metric.  The known roots of a
parameter live in one `RootSet`, built on that metric: its norm measures
steps, it deflates, and it decides root identity.  `discover` is the one
multi-root loop at a parameter, on top of either deflated solver, and
`continuation` is the one sweep over parameters: each parameter continues
every tracked branch by one solve from the previous parameter's root and runs
the guess battery only where a branch can be born.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .model import ParametricModel, form_norm

__all__ = [
    "NewtonConfig",
    "SolveResult",
    "DeflationSingularity",
    "RootSet",
    "newton",
    "deflated_newton",
    "discover",
    "continuation",
    "discover_solutions",
]

# Relative scale below which two states count as the same root.
DISTINCTNESS_THRESHOLD = 1e-6
# |1 - <grad m, du>/m| below this means the deflated step direction is lost.
STALL_THRESHOLD = 1e-14
# Iterations in a row without the step norm halving its best value before a
# run is abandoned as "no_progress".
NO_PROGRESS_WINDOW = 20
# An iterate whose state norm exceeds this ends its run as "divergence_norm".
DIVERGENCE_NORM = 1e6
# The deflation power r and shift sigma of the factor ||y - u||^-r + sigma.
# Scans of the chafee and bratu oracles at meshes 41 to 3201 lost no root at
# r <= 2, but r = 3 or sigma < 0.5 loses chafee branches, and not monotonically.
DEFLATION_POWER = 2.0
DEFLATION_SHIFT = 1.0


def _refuse(problems: list[str]) -> None:
    if problems:
        raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class NewtonConfig:
    """Settings of every Newton solve, plain or deflated, full-order or reduced.

    `tol` bounds the dual norm of the residual at convergence (X^{-1}-norm at
    full order, Euclidean on reduced coefficients).  Invalid settings raise
    ValueError when the config is built.
    """

    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        problems = []
        if not 0.0 < self.tol < math.inf:
            problems.append(f"newton_tol must be positive and finite (got {self.tol})")
        if not self.max_iter >= 1:
            problems.append(f"max_iter must be >= 1 (got {self.max_iter})")
        _refuse(problems)


@dataclass
class SolveResult:
    """Outcome of a Newton run; `u` is the last iterate even on divergence.

    `residual_norm` is the dual norm of the residual at `u`, the quantity
    compared with `NewtonConfig.tol`.
    """

    u: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    cause: str | None = None


class DeflationSingularity(RuntimeError):
    """Raised when the deflation operator is evaluated on one of its own roots."""


def _euclidean_norm(v: np.ndarray) -> float:
    """||v||_2 as `np.linalg.norm` computes it, sqrt(v . v), without its dispatch."""
    return math.sqrt(v.dot(v))


@dataclass
class RootSet:
    """Distinct solutions of one parameter value: the distinctness guard and deflation.

    `metric` applies the SPD matrix of the state inner product: the model's
    banded `x_apply` for full-order states, None for reduced coefficients,
    whose norm is then `_euclidean_norm` (the basis is X-orthonormal).  Two
    states are the same root when norm(a - b) <= DISTINCTNESS_THRESHOLD *
    max(1, norm(a), norm(b)); `add` silently refuses duplicates and reports
    whether it added.
    """

    metric: Callable[[np.ndarray], np.ndarray] | None = None
    roots: list = field(default_factory=list)

    def _measured(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """(metric(v), ||v||), with metric(v) = v when there is no metric."""
        if self.metric is None:
            return v, _euclidean_norm(v)
        mv = self.metric(v)
        return mv, form_norm(float(v @ mv))

    def norm(self, v: np.ndarray) -> float:
        return self._measured(v)[1]

    def is_distinct(self, u: np.ndarray) -> bool:
        nu = self.norm(u)
        for v in self.roots:
            scale = max(1.0, nu, self.norm(v))
            if self.norm(u - v) <= DISTINCTNESS_THRESHOLD * scale:
                return False
        return True

    def add(self, u: np.ndarray) -> bool:
        if not self.is_distinct(u):
            return False
        self.roots.append(np.asarray(u, dtype=float).copy())
        return True

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def factor_and_gradient(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """The deflation factor m(y) = prod_i (||y - u_i||^-r + sigma) and its
        gradient, from one pass over the roots, with r = DEFLATION_POWER and
        sigma = DEFLATION_SHIFT.

        The gradient pairs with plain dot products against steps.
        """
        y = np.asarray(y, dtype=float)
        terms, m = [], 1.0
        for u in self.roots:
            md, dist = self._measured(y - u)
            if dist < 1e-100:
                raise DeflationSingularity("deflation singularity: state coincides with a stored root")
            f = dist ** (-DEFLATION_POWER) + DEFLATION_SHIFT
            m *= f
            terms.append((md, dist, f))
        g = np.zeros(y.shape)
        for md, dist, f in terms:
            g += (m / f) * (-DEFLATION_POWER) * dist ** (-DEFLATION_POWER - 2.0) * md
        return m, g


def _deflation_roots(roots, metric) -> RootSet:
    """`roots` (a RootSet or list of states) as a RootSet in `metric`, not copied."""
    if isinstance(roots, RootSet) and roots.metric == metric:
        return roots
    return RootSet(metric, [np.asarray(u, dtype=float) for u in roots])


@np.errstate(over="ignore", invalid="ignore")
def _newton_core(system, guess, cfg, residual_norm, roots: RootSet) -> SolveResult:
    """Shared engine for all four solver entry points (full/reduced x plain/deflated).

    `system` is (values, residual, step): v = values(y) is the work the
    residual and the Newton step at y share, evaluated once per iterate;
    residual(y, v) is the residual at y, and step(v, r) the plain Newton
    step du solving Jac(y) du = -r (a banded solve for full-order states,
    a dense N x N solve for reduced ones).  A LinAlgError from the step is
    reported as "singular_jacobian" and a non-finite du as
    "nonfinite_step".  `residual_norm` is the dual norm of the residual and
    decides convergence against cfg.tol.  `roots.norm` measures steps and
    iterates; a non-empty `roots` deflates each step, and
    `roots.is_distinct` ends a run whose guess or converged iterate is one
    of them.
    With no roots the deflation factor would be 1 and the step scaling
    exactly 1.0, so plain runs skip it.  A run whose (deflated) step norm
    has not fallen below half its best value for NO_PROGRESS_WINDOW
    iterations in a row ends "no_progress".  Overflow during divergence is
    expected and handled through the norm checks, so numpy warnings stay
    silenced for the whole iteration.
    """
    values, residual, newton_step = system
    norm = roots.norm
    y = np.array(guess, dtype=float).copy()
    if roots and not roots.is_distinct(y):
        return SolveResult(y, False, 0, np.inf, "deflation_singular_guess")

    v = values(y)
    r = residual(y, v)
    rnorm = residual_norm(r)
    best_step, stale = np.inf, 0
    for k in range(cfg.max_iter + 1):
        if not math.isfinite(rnorm):
            return SolveResult(y, False, k, rnorm, "nonfinite_residual")
        if rnorm < cfg.tol:
            if roots and not roots.is_distinct(y):
                return SolveResult(y, False, k, rnorm, "converged_to_known_root")
            return SolveResult(y, True, k, rnorm, None)
        if k == cfg.max_iter:
            break
        try:
            du = newton_step(v, r)
        except np.linalg.LinAlgError:
            return SolveResult(y, False, k, rnorm, "singular_jacobian")
        if not np.isfinite(du).all():
            return SolveResult(y, False, k, rnorm, "nonfinite_step")
        if roots:
            try:
                m, grad = roots.factor_and_gradient(y)
            except DeflationSingularity:
                return SolveResult(y, False, k, rnorm, "deflation_singular_guess")
            denom = 1.0 - float(grad @ du) / m
            if abs(denom) < STALL_THRESHOLD:
                return SolveResult(y, False, k, rnorm, "deflation_stall")
            du = du / denom
        step = norm(du)
        if step < 0.5 * best_step:
            best_step, stale = step, 0
        else:
            stale += 1
            if stale >= NO_PROGRESS_WINDOW:
                return SolveResult(y, False, k, rnorm, "no_progress")
        y = y + du
        if norm(y) > DIVERGENCE_NORM:
            return SolveResult(y, False, k + 1, rnorm, "divergence_norm")
        v = values(y)
        r = residual(y, v)
        rnorm = residual_norm(r)
    return SolveResult(y, False, cfg.max_iter, rnorm, "max_iter")


def newton(model: ParametricModel, mu: float, guess: np.ndarray,
           cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Full-order Newton; converges when the dual norm of the residual drops below cfg.tol."""
    return _newton_core(model.newton_system(mu), guess, cfg, model.x_dual_norm,
                        RootSet(model.x_apply))


def deflated_newton(model: ParametricModel, mu: float, guess: np.ndarray,
                    roots, cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Full-order Newton repelled from `roots` (a RootSet or list of states).

    The deflation power and shift are DEFLATION_POWER and DEFLATION_SHIFT.
    With an empty root list this reproduces `newton` bit for bit.
    """
    return _newton_core(model.newton_system(mu), guess, cfg, model.x_dual_norm,
                        _deflation_roots(roots, model.x_apply))


def discover(deflated_solve, guesses, found: RootSet, drive: bool = True) -> RootSet:
    """Collect into `found` the distinct roots reachable from `guesses`.

    `deflated_solve(guess, roots)` is a deflated Newton run (full-order or
    reduced) repelled from `roots`; while `found` is empty the run is plain
    Newton.  With `drive` every guess is driven through it until it fails or
    returns a known root, so one guess can reach several roots and each new
    root immediately deflects the following attempts.  Without `drive` each
    guess gets exactly one attempt: a guess that continues a known branch
    converges to that branch's root or to nothing.
    """
    for guess in guesses:
        while True:
            result = deflated_solve(guess, found)
            if not (result.converged and found.add(result.u) and drive):
                break
    return found


def continuation(solve_at, mus, battery, count=None):
    """Yield (mu, roots) over `mus` in order, the roots found at each mu.

    `solve_at(mu, guesses, roots, drive)` returns `roots`, already found at
    mu, followed by the roots its guesses add (`discover` with `drive`); a
    single-root solver adds none to a non-empty `roots`.  At each mu the
    carried guesses (the previous parameter's roots) are solved first, each
    by exactly one attempt deflated against the roots found so far at mu
    (the first one plain Newton): a tracked branch is continued by one
    solve, as in deflated continuation.  Nothing is carried between calls.
    The `battery` then runs against the same roots, each guess driven until
    it fails, only where a branch can be born:

    (a) at the first parameter;
    (b) where no root was found;
    (c) where the sorted list of `count(u, mu)` over the roots (the number of
        eigenvalues <= 0 of the Jacobian at u) differs from the previous
        parameter's list: a branch is born where a tracked branch changes
        stability (the test functions of bifurcation analysis);
    (d) right after a parameter where the battery added a root, since it may
        have found one of a pitchfork's +- pair only, and the count list at
        the next parameter does not change again.

    Where the battery runs, the guesses meet one growing root set in the
    order carried roots, battery.  Where it does not, a branch connected to
    no tracked branch (an isola) goes unseen; bratu and chafee have none.
    Without `count`, (c) never fires.
    """
    roots: list = []
    counts, born = None, False
    for k, mu in enumerate(mus):
        roots = list(solve_at(mu, list(roots), [], False)) if roots else []
        here = sorted(count(u, mu) for u in roots) if count else None
        if k == 0 or not roots or here != counts or born:
            n = len(roots)
            roots = list(solve_at(mu, list(battery), roots, True))
            born = len(roots) > n
            if born and count:
                here = sorted(here + [count(u, mu) for u in roots[n:]])
        else:
            born = False
        counts = here
        yield mu, roots


def discover_solutions(model: ParametricModel, mu: float, guesses,
                       cfg: NewtonConfig = NewtonConfig(), roots=(),
                       drive: bool = True) -> RootSet:
    """The full-order solutions `roots`, already known at mu, and the distinct
    ones `guesses` reach from there (`discover`)."""
    guesses = [np.asarray(g, dtype=float) for g in guesses]
    if not guesses:
        raise ValueError("discover_solutions needs at least one initial guess")
    return discover(
        lambda g, found: deflated_newton(model, mu, g, found, cfg),
        guesses, RootSet(model.x_apply, list(roots)), drive)
