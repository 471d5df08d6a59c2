"""A-posteriori error estimation for reduced solutions.

Two residual-based bounds are provided.  The linear one divides the dual
residual norm by the inf-sup constant of the full-order Jacobian at the lifted
reduced solution.  The nonlinear one sharpens it with a local Lipschitz
constant K of the Jacobian: with tau = 2 K r / beta^2 (r the dual residual
norm) the error admits the certified bound

    2 r / beta / (1 + sqrt(1 - tau))        whenever tau <= 1,

which degrades gracefully to the linear bound as K -> 0 and is evaluated in
that division-free form to avoid cancellation.  tau > 1 means the residual is
too large for the quadratic model to certify anything; such entries are
reported with an infinite bound but keep their tau value for diagnostics.

The auto-switching mode runs the nonlinear bound only when it is valid on the
whole training set of the current sweep and otherwise falls back to the linear
bound for every entry, so a single sweep never mixes the two.

The sweeps take a basis alone: they solve its reduced problem and certify each
lifted root against the full-order operators of the model it holds
(`basis.model`), the one model whose error the bound is about.
"""
from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpttrs, dstev

from .model import ParametricModel, pencil_side, sturm_count
from .nlsolve import NewtonConfig, continuation
from .rom import BasisMatrix, discover_reduced_solutions, reduced_morse_index, reduced_root

__all__ = [
    "BETA_FLOOR",
    "EstimatorKind",
    "Estimate",
    "EstimatorEntry",
    "EstimatorSet",
    "ESTIMATOR_FIELDS",
    "BetaEntry",
    "certificate_memo",
    "inf_sup",
    "residual_dual_norm",
    "linear_estimate",
    "nonlinear_estimate",
    "estimator_sweep",
    "reduced_branches",
    "deflated_estimator_sweep",
    "beta_sweep",
    "argmin_beta",
]

# Inf-sup values below this are treated as numerically singular in divisions.
BETA_FLOOR = 1e-12

# The columns of `EstimatorSet.rows`, in the order estimators_iter_*.csv writes them.
ESTIMATOR_FIELDS = ["mu", "branch", "delta", "beta", "tau", "valid"]

# Inf-sup values by (model, Jacobian digest) inside `certificate_memo`, else None.
_CERTIFICATES: ContextVar[dict | None] = ContextVar("certificates", default=None)


@contextmanager
def certificate_memo():
    """Certify each distinct pencil once in the block (`inf_sup`); nested
    entries share the outermost entry's memo, which its exit drops."""
    memo = _CERTIFICATES.get()
    token = _CERTIFICATES.set({} if memo is None else memo)
    try:
        yield
    finally:
        _CERTIFICATES.reset(token)


class EstimatorKind(str, Enum):
    LINEAR = "linear"
    NONLINEAR_BRR = "nonlinear_brr"
    AUTO_SWITCH = "auto_switch"


def _pencil_inf_sup(a: np.ndarray, b) -> float:
    """min |lam| of A v = lam B v, A symmetric (3, m) bands, B SPD: its (3, m)
    bands or their `model.pencil_side`; see `inf_sup`."""
    b, b_up, b_d, b_e, abs_b, q, bq = pencil_side(b) if isinstance(b, np.ndarray) else b
    m, a_up = a.shape[1], np.asfortranarray(a[:2])

    def near(s: float) -> bool:  # some |lam| <= s?  pencil eigenvalues <= s against <= -s
        return sturm_count(a - s * b) > sturm_count(a + s * b)

    qs, bqs = np.empty((2, min(m, 32), m))  # Lanczos vectors and B times them, as rows
    qs[0], bqs[0] = q, bq
    alpha, beta = np.empty((2, len(qs)))
    for k in range(len(qs)):
        w = dpttrs(b_d, b_e, dsbmv(1, 1.0, a_up, qs[k]))[0]
        coef = bqs[:k + 1] @ w  # coef[k] = alpha_k = q_k . A q_k
        w -= coef @ qs[:k + 1]
        w -= (bqs[:k + 1] @ w) @ qs[:k + 1]
        alpha[k] = coef[k]
        bw = dsbmv(1, 1.0, b_up, w)  # the B-norm by a B product: w . A q_k reads ghosts near 0
        beta[k] = bk = math.sqrt(max(w @ bw, 0.0))
        theta, z = dstev(alpha[:k + 1], beta[:max(k, 1)])[:2]
        i = int(np.argmin(np.abs(theta)))
        t, res, theta = abs(theta[i]), bk * abs(z[k, i]), theta.tolist()
        gap = min([abs(x - theta[i]) for x in theta[max(i - 1, 0):i + 2] if x != theta[i]] or [0.0])
        if res * res <= 0.1 * (d := max(1e-10 * t, 1e-12)) * gap:
            y = z[:, i] @ qs[:k + 1]  # Ritz vector; counts resolve 4 eps y^T (|A| + t|B|) y
            d = max(d, 9e-16 * (y @ y) * (abs(a) + t * abs_b).sum(axis=0).max())
            if near(t + d) and not near(t - d):
                return t
        if bk == 0.0 or k + 1 == len(qs):
            break
        qs[k + 1], bqs[k + 1] = w / bk, bw / bk
    lo, hi = 0.0, 2.0 * (t + res) + 1e-12  # bisection: min |lam| in (lo, hi]
    while hi - lo > 2.0 * max(1e-10 * lo, 1e-12):
        lo, hi = (lo, mid) if near(mid := 0.5 * (lo + hi)) else (mid, hi)
    return 0.5 * (lo + hi)


def inf_sup(model: ParametricModel, u: np.ndarray, mu: float) -> float:
    """Discrete inf-sup constant sigma_min(L^{-1} Jac L^{-T}) at state u, X = L L^T.

    Jac is symmetric, so beta = min |lam| over the pencil Jac v = lam X v of
    tridiagonals.  Lanczos in the X inner product on X^{-1} Jac proposes it,
    O(m) a step, from X^{-1} (1 + cos(2.39996 i)): smooth, so weighted to the
    low symmetric modes, but not mirror-symmetric.  That start and X's factor
    are the model's (`x_pencil`), built once.  When the Ritz value t nearest 0
    meets res^2 <= 0.1 d gap (Kato-Temple), d = max(1e-10 t, 1e-12), four Sturm
    counts (the inertia of Jac - s X, Sylvester) prove some |lam| <= t + d and
    none < t - d, d widened to their rounding, 4 eps y^T (|Jac| + t |X|) y for
    the Ritz vector y.  After 32 steps without, bisection on the counts finds
    beta.  Non-finite Jacobians raise ValueError first.

    Inside `certificate_memo` a pencil already solved, by the model (whose X
    bands are fixed and read-only from construction) and the first 16 bytes
    of the SHA-256 digest of the Jac bands (on CPUs with SHA instructions
    about half the cost of BLAKE2b), returns its stored value: the same
    float, as the solve reads nothing else (chafee's trivial branch repeats
    J(0, mu), and u and -u one Jac).
    """
    jac = model.jacobian_bands(u, mu)
    if not np.isfinite(jac).all():
        raise ValueError("array must not contain infs or NaNs")
    memo = _CERTIFICATES.get()
    if memo is None:
        return _pencil_inf_sup(jac, model.x_pencil)
    if (key := (model, hashlib.sha256(jac).digest()[:16])) not in memo:
        memo[key] = _pencil_inf_sup(jac, model.x_pencil)
    return memo[key]


def residual_dual_norm(model: ParametricModel, u: np.ndarray, mu: float) -> float:
    return model.x_dual_norm(model.residual(u, mu))


@dataclass
class Estimate:
    """All quantities produced for one reduced solution at one parameter."""

    delta_lin: float
    delta_brr: float  # inf when tau > 1
    beta: float
    tau: float
    lipschitz: float

    def delta_for(self, kind: EstimatorKind) -> float:
        return self.delta_lin if kind == EstimatorKind.LINEAR else self.delta_brr


def linear_estimate(model: ParametricModel, u: np.ndarray,
                    mu: float) -> tuple[float, float, float]:
    """(delta_lin, beta, dual residual norm) at full-order state u."""
    res = residual_dual_norm(model, u, mu)
    beta = inf_sup(model, u, mu)
    return res / max(beta, BETA_FLOOR), beta, res


def nonlinear_estimate(model: ParametricModel, u: np.ndarray, mu: float) -> Estimate:
    """Both bounds at full-order state u.

    The Lipschitz constant is taken on a ball of radius twice the linear
    bound, which contains the exact solution whenever the nonlinear bound is
    valid at all.
    """
    delta_lin, beta, res = linear_estimate(model, u, mu)
    safe_beta = max(beta, BETA_FLOOR)
    lip = model.lipschitz_constant(u, mu, radius=2.0 * delta_lin) if math.isfinite(delta_lin) else math.inf
    tau = 2.0 * lip * res / safe_beta**2 if math.isfinite(lip) else math.inf
    if tau <= 1.0:
        delta_brr = 2.0 * delta_lin / (1.0 + math.sqrt(1.0 - tau))
    else:
        delta_brr = math.inf
    return Estimate(delta_lin, delta_brr, beta, tau, lip)


@dataclass
class EstimatorEntry:
    """One (parameter, branch) row of a training sweep."""

    mu: float
    branch: int
    converged: bool
    u_n: np.ndarray | None = None
    estimate: Estimate | None = None
    # Effective certified bound under the kind the sweep settled on.
    delta: float = math.inf
    valid: bool = False

    @property
    def beta(self) -> float:
        return self.estimate.beta if self.estimate else math.nan

    @property
    def tau(self) -> float:
        return self.estimate.tau if self.estimate else math.nan


class EstimatorSet:
    """Sweep result: entries plus the estimator kind actually applied.

    Auto-switching resolves here: the nonlinear bound is kept only if every
    converged entry of the sweep has tau <= 1, otherwise all entries fall
    back to the linear bound.
    """

    def __init__(self, entries: list[EstimatorEntry], requested_kind: EstimatorKind):
        self.entries = entries
        self.requested_kind = requested_kind
        if requested_kind == EstimatorKind.AUTO_SWITCH:
            usable = all(e.estimate is not None and e.estimate.tau <= 1.0
                         for e in entries if e.converged)
            self.kind_used = EstimatorKind.NONLINEAR_BRR if usable else EstimatorKind.LINEAR
        else:
            self.kind_used = requested_kind
        for e in entries:
            if e.converged and e.estimate is not None:
                e.delta = e.estimate.delta_for(self.kind_used)
                e.valid = math.isfinite(e.delta)
            else:
                e.delta = math.inf
                e.valid = False

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def max_delta(self) -> float:
        return max((e.delta for e in self.entries), default=0.0)

    def rows(self) -> list[dict]:
        """One row per entry, its ESTIMATOR_FIELDS attributes with `valid` as 0/1."""
        return [{k: int(e.valid) if k == "valid" else getattr(e, k)
                 for k in ESTIMATOR_FIELDS} for e in self.entries]


def _entries(basis, mu, roots) -> list[EstimatorEntry]:
    """One estimated entry per reduced root at mu, or one unconverged entry if none."""
    if not roots:
        return [EstimatorEntry(mu, 0, False)]
    return [EstimatorEntry(mu, k, True, u.copy(),
                           nonlinear_estimate(basis.model, basis.lift(u), mu))
            for k, u in enumerate(roots)]


def estimator_sweep(basis: BasisMatrix, mus, cfg: NewtonConfig = NewtonConfig(),
                    kind: EstimatorKind = EstimatorKind.AUTO_SWITCH) -> EstimatorSet:
    """Single-branch sweep: one reduced solve and one estimate per parameter.

    Every solve starts from the projected default guess of the basis's model,
    without continuation (`rom.reduced_root`), as the single-branch snapshots
    start from the model default guess.
    """
    default = [basis.project(basis.model.default_guess)]
    entries = [e for mu in mus
               for e in _entries(basis, mu, reduced_root(basis, mu, default, cfg))]
    return EstimatorSet(entries, kind)


def reduced_branches(basis: BasisMatrix, mus, cfg: NewtonConfig = NewtonConfig(),
                     deflate: bool = True):
    """Yield (mu, reduced roots) over `mus` by `nlsolve.continuation`.

    With `deflate`, the roots at each parameter are the previous parameter's,
    one solve each, and, where the reduced Morse indices tell a branch can be
    born (`rom.reduced_morse_index`), every further root the projected model
    battery reaches (`rom.discover_reduced_solutions`).  Without it, one root
    per parameter (`rom.reduced_root`) from the previous root, else from the
    projected default guess, which keeps to one solution family.  The battery
    and the default guess are those of the basis's model.
    """
    if not deflate:
        return continuation(
            lambda mu, guesses, roots, drive: reduced_root(basis, mu, guesses, cfg, roots),
            mus, [basis.project(basis.model.default_guess)])

    def solve_at(mu, guesses, roots, drive):
        return discover_reduced_solutions(basis, mu, guesses, cfg, roots, drive)

    return continuation(solve_at, mus, [basis.project(g) for g in basis.model.default_guesses],
                        partial(reduced_morse_index, basis))


def deflated_estimator_sweep(basis: BasisMatrix, mus, cfg: NewtonConfig = NewtonConfig(),
                             kind: EstimatorKind = EstimatorKind.AUTO_SWITCH) -> EstimatorSet:
    """Multi-branch sweep: every reduced root deflation reaches per parameter
    (`reduced_branches`), each estimated."""
    return EstimatorSet([e for mu, roots in reduced_branches(basis, mus, cfg)
                         for e in _entries(basis, mu, roots)], kind)


@dataclass
class BetaEntry:
    mu: float
    beta: float
    converged: bool


def beta_sweep(basis: BasisMatrix, mus, cfg: NewtonConfig = NewtonConfig()) -> list[BetaEntry]:
    """Inf-sup profile of `basis.model` over the training set at lifted reduced solutions.

    The solves follow one solution family (`reduced_branches` without
    deflation), whose inf-sup dips at the critical parameter.  Parameters
    where the reduced solve diverges get an infinite value so they never win
    the argmin used for bifurcation localization.
    """
    return [BetaEntry(mu, inf_sup(basis.model, basis.lift(roots[0]), mu) if roots else math.inf,
                      bool(roots))
            for mu, roots in reduced_branches(basis, mus, cfg, deflate=False)]


def argmin_beta(entries: list[BetaEntry]) -> BetaEntry:
    if not entries:
        raise ValueError("empty inf-sup profile")
    return min(entries, key=lambda e: (e.beta, e.mu))
