"""Reduced basis handling and Galerkin-projected solvers.

A basis is a dense N_h x N matrix B with X-orthonormal columns; the reduced
residual and Jacobian are the plain Galerkin projections

    G_N(u_N) = B^T G(B u_N),        Jac_N(u_N) = B^T Jac(B u_N) B,

with no hyper-reduction.  They are evaluated without lifting to full order.
With Phi the values of the basis columns at the model's 2(m+1) Gauss points
(m interior nodes), K_N = B^T X B, w the Gauss weight and g the model's
source, the quadrature form reads

    G_N(u_N) = K_N u_N - mu w Phi^T g(Phi u_N),
    Jac_N(u_N) = K_N - mu w Phi^T diag(g'(Phi u_N)) Phi,

the quadrature sums of the full-order load vector and weighted mass matrix
taken in another order, O(m N^2) an iterate.  A cubic source g(v) = a v +
b v^3 (chafee) has an exact offline/online split instead: the model's
`reduced_tensors` gives L = a Phi^T Phi and the quartic tensor C = b T,
T_ijkl = sum_q Phi_qi Phi_qj Phi_qk Phi_ql, built once per basis in
O(m N^4), and then

    G_N(u_N) = (K_N - mu w L) u_N - mu w C(u_N, u_N) u_N,
    Jac_N(u_N) = (K_N - mu w L) - 3 mu w C(u_N, u_N),

O(N^4) an iterate with no Gauss point visited.  The tensors are used only
while N^2 <= min(2(m+1) / 4, 512) (see `_TENSOR_MAX_PAIRS`); a larger basis,
and every basis of a non-cubic source (bratu), keeps the quadrature form, and
the two agree to roundoff.  One reduced solve forms K_N - mu w L once and
shares each iterate's C(u_N, u_N) (or Phi u_N) between its residual and its
Newton step, an N x N dense solve.

Reduced Newton iterates on coefficient vectors and converges when ||G_N||_2
drops below the tolerance: since the basis is X-orthonormal, that is the dual
norm of the Galerkin residual on span(B), the criterion of the full-order
solvers.
For the same reason the Euclidean norm of a coefficient vector is the X-norm
of its lift, so reduced roots live in a `RootSet` without metric: steps, root
distances in deflation, "no_progress" and distinctness all use that norm.
Otherwise the reduced solvers and root discovery are the full-order ones of
`nlsolve`, and sweeps run `reduced_root` (one branch) or
`discover_reduced_solutions` (all branches) through `nlsolve.continuation`.
Deflated sweeps gate that loop's guess battery on `reduced_morse_index`, the
count of eigenvalues <= 0 of the N x N reduced Jacobian at each root.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ParametricModel, make_model
from .nlsolve import (NewtonConfig, RootSet, SolveResult, _deflation_roots,
                      _euclidean_norm, _newton_core, discover)

__all__ = [
    "REJECTION_TOL",
    "NULL_TOL",
    "EnrichResult",
    "BasisMatrix",
    "reduced_residual",
    "reduced_jacobian",
    "reduced_newton",
    "reduced_deflated_newton",
    "reduced_root",
    "discover_reduced_solutions",
    "reduced_morse_index",
]

# A candidate whose orthogonal component is below this fraction of its own
# X-norm carries no new information and is rejected.
REJECTION_TOL = 1e-8

# A cubic source's reduced tensors are used while N^2 <= min(2(m+1) / 4, 512):
# a quarter of the Gauss points, and C at most 512^2 doubles (2 MB).  Measured
# per reduced Newton iterate (contraction, residual, Jacobian and dense step;
# one BLAS thread, a Xeon with 2 MB of L2 a core), tensor against quadrature
# path in us: mesh 201, N = 10: 14 / 28, N = 18: 30 / 36, N = 20: 42 / 36;
# mesh 801, N = 20: 44 / 79, N = 24: 96 / 104, N = 28: 202 / 168; mesh 1601,
# N = 28: 211 / 342, N = 32: 335 / 348, N = 36: 520 / 436; mesh 3201, N = 20:
# 41 / 453, N = 40: 774 / 1172.  So the tensors win up to N^2 of about 0.9,
# 0.4, 0.3 and 0.4 times 2(m+1) on these meshes, and an iterate's cost jumps
# 2.5-fold once C leaves the L2 cache (N = 20 to 24); past the cap the
# quadrature path is slower but holds no N^4 array.
_TENSOR_MAX_PAIRS = 512

# Snapshots with X-norm at or below solver-noise scale are the zero function
# for all practical purposes; normalizing them would enrich pure noise.
NULL_TOL = 1e-8


@dataclass
class EnrichResult:
    status: str  # "enriched" | "rejected"
    cause: str | None = None  # "null_snapshot" | "redundant" for rejections
    vector: np.ndarray | None = None

    @property
    def enriched(self) -> bool:
        return self.status == "enriched"


class BasisMatrix:
    """X-orthonormal basis that grows one Gram-Schmidt-filtered column at a time.

    The Galerkin operators (Phi, K_N and the model's tensors) of the reduced
    solvers are built on first use and dropped when `enrich` appends a column;
    the columns are not meant to be changed in place.
    """

    # The method that built a loaded basis, as `save` recorded it (None if not).
    strategy: str | None = None

    def __init__(self, model: ParametricModel, columns: np.ndarray | None = None,
                 mu_values: list | None = None):
        self.model = model
        if columns is None:
            columns = np.zeros((model.mesh_size, 0))
        self._columns = np.asarray(columns, dtype=float).reshape(model.mesh_size, -1)
        # Parameter value each column's snapshot was taken at (None if unknown).
        self.mu_values = list(mu_values) if mu_values is not None else [None] * self._columns.shape[1]
        self._operators: tuple[np.ndarray, np.ndarray, tuple | None] | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self._columns

    @property
    def n(self) -> int:
        return self._columns.shape[1]

    def __len__(self) -> int:
        return self.n

    def enrich(self, snapshot: np.ndarray, mu: float | None = None) -> EnrichResult:
        """Append the X-normalized orthogonal component of `snapshot`, if any.

        Two Gram-Schmidt passes keep the orthonormality defect at roundoff
        level.  Null snapshots and snapshots whose orthogonal component falls
        below REJECTION_TOL relative to their own norm are rejected.
        """
        u = np.asarray(snapshot, dtype=float)
        norm_u = self.model.x_norm(u)
        if norm_u <= NULL_TOL:
            return EnrichResult("rejected", "null_snapshot")
        w = u.copy()
        for _ in range(2):
            if self.n:
                coeffs = self._columns.T @ self.model.x_apply(w)
                w = w - self._columns @ coeffs
        norm_w = self.model.x_norm(w)
        if norm_w <= REJECTION_TOL * norm_u:
            return EnrichResult("rejected", "redundant")
        xi = w / norm_w
        self._columns = np.column_stack([self._columns, xi])
        self.mu_values.append(mu)
        self._operators = None
        return EnrichResult("enriched", vector=xi)

    def galerkin_operators(self) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """(Phi, K_N, tensors), cached: the columns at the Gauss points, B^T X B,
        and the model's `reduced_tensors(Phi)` while N^2 <= min(2(m+1) / 4,
        _TENSOR_MAX_PAIRS), else None."""
        if self._operators is None:
            phi = self.model.gauss_matrix(self._columns)
            k_n = self._columns.T @ self.model.x_apply(self._columns)
            use = self.n ** 2 <= min(len(phi) // 4, _TENSOR_MAX_PAIRS)
            tensors = self.model.reduced_tensors(phi) if use else None
            self._operators = (phi, k_n, tensors)
        return self._operators

    def lift(self, u_n: np.ndarray) -> np.ndarray:
        """Map reduced coefficients to the full-order state B u_N."""
        return self._columns @ np.asarray(u_n, dtype=float)

    def project(self, u_h: np.ndarray) -> np.ndarray:
        """X-orthogonal projection coefficients B^T X u_h."""
        return self._columns.T @ self.model.x_apply(u_h)

    def projection_error(self, u_h: np.ndarray) -> float:
        return self.model.x_norm(u_h - self.lift(self.project(u_h)))

    def orthonormality_defect(self) -> float:
        gram = self._columns.T @ self.model.x_apply(self._columns)
        return float(np.max(np.abs(gram - np.eye(self.n)))) if self.n else 0.0

    def truncated(self, n: int) -> "BasisMatrix":
        """First-n-columns sub-basis (greedy and POD bases are nested)."""
        if not 0 <= n <= self.n:
            raise ValueError(f"truncation size must lie in [0, {self.n}]")
        return BasisMatrix(self.model, self._columns[:, :n].copy(), self.mu_values[:n])

    # -- persistence --------------------------------------------------------

    def save(self, csv_path, strategy: str | None = None) -> None:
        """Write the columns to csv_path and the metadata to the sibling .json.

        `strategy`, the method that built the basis, is recorded when given,
        so the basis can later be scored the way its own run scored it.
        """
        csv_path = Path(csv_path)
        np.savetxt(csv_path, self._columns, delimiter=",", fmt="%.17g")
        meta = {
            "model_kind": self.model.kind.value,
            "mesh_size": self.model.mesh_size,
            "n_basis": self.n,
            "mu_train": [None if m is None else float(m) for m in self.mu_values],
        }
        if strategy is not None:
            meta["strategy"] = strategy
        csv_path.with_suffix(".json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, csv_path) -> "BasisMatrix":
        """The basis `save` wrote to csv_path, on the model and with the
        strategy its sibling .json recorded."""
        csv_path = Path(csv_path)
        meta = json.loads(csv_path.with_suffix(".json").read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"basis metadata must be a JSON object (got {type(meta).__name__})")
        model = make_model(meta["model_kind"], meta["mesh_size"])
        # An empty basis is saved as blank lines, which loadtxt cannot shape.
        cols = (np.loadtxt(csv_path, delimiter=",", ndmin=2) if meta["n_basis"]
                else np.zeros((meta["mesh_size"], 0)))
        if cols.shape != (meta["mesh_size"], meta["n_basis"]):
            raise ValueError("basis matrix shape does not match its metadata")
        if not np.all(np.isfinite(cols)):
            raise ValueError("basis matrix has non-finite entries")
        mus = meta["mu_train"]
        if not isinstance(mus, list) or len(mus) != meta["n_basis"]:
            raise ValueError(f"mu_train must list one parameter per column (got {mus!r})")
        basis = cls(model, cols, mus)
        defect = basis.orthonormality_defect()
        if not defect <= 1e-10:  # a NaN defect fails too
            raise ValueError(f"loaded basis is not X-orthonormal (defect {defect:.3e})")
        basis.strategy = meta.get("strategy")
        return basis


def _reduced_system(basis: BasisMatrix, mu: float):
    """(shared, residual, jacobian) of the reduced system at mu.

    `shared(y)` is what the residual `residual(y, s)` and the Jacobian
    `jacobian(s)` at y both need, s = shared(y): C(y, y) from the model's
    tensors, else the Gauss values Phi y (see the module docstring).
    """
    phi, k_n, tensors = basis.galerkin_operators()
    model = basis.model
    muw = mu * model.gauss_weight
    if tensors is None:
        return (lambda y: phi @ y,
                lambda y, v: k_n @ y - muw * (phi.T @ model.source(v)),
                lambda v: k_n - muw * (phi.T @ (model.source_prime(v)[:, None] * phi)))
    lin, cub = tensors
    a, n = k_n - muw * lin, basis.n
    return (lambda y: ((y[:, None] * y).ravel() @ cub).reshape(n, n),
            lambda y, c: a @ y - muw * (c @ y),
            lambda c: a - (3.0 * muw) * c)


def reduced_residual(basis: BasisMatrix, u_n: np.ndarray, mu: float) -> np.ndarray:
    """B^T G(B u_N; mu), from the model's tensors or summed at the Gauss points."""
    shared, residual, _ = _reduced_system(basis, mu)
    u_n = np.asarray(u_n, dtype=float)
    return residual(u_n, shared(u_n))


def reduced_jacobian(basis: BasisMatrix, u_n: np.ndarray, mu: float) -> np.ndarray:
    """B^T Jac(B u_N; mu) B, from the model's tensors or summed at the Gauss points."""
    shared, _, jacobian = _reduced_system(basis, mu)
    u_n = np.asarray(u_n, dtype=float)
    return jacobian(shared(u_n))


def _reduced_solve(basis: BasisMatrix, mu: float, guess, cfg: NewtonConfig,
                   roots: RootSet) -> SolveResult:
    """`_newton_core` on the reduced system, Euclidean norms throughout.

    Each new iterate's shared part is evaluated once, for its residual and
    the Jacobian of its Newton step.
    """
    if basis.n == 0:
        raise ValueError("reduced solve requires a nonempty basis")
    shared, residual, jacobian = _reduced_system(basis, mu)
    held = [None, None]  # the last iterate and its shared part

    def at(y):
        if held[0] is not y:
            held[:] = y, shared(y)
        return held[1]

    return _newton_core(lambda y: residual(y, at(y)),
                        lambda y, r: np.linalg.solve(jacobian(at(y)), -r),
                        guess, cfg, _euclidean_norm, roots)


def reduced_newton(basis: BasisMatrix, mu: float, guess: np.ndarray,
                   cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Newton on the reduced system; converges on the Euclidean (dual) norm of G_N."""
    return _reduced_solve(basis, mu, guess, cfg, RootSet())


def reduced_deflated_newton(basis: BasisMatrix, mu: float, guess: np.ndarray,
                            roots, cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Reduced Newton repelled from the given reduced roots (Euclidean metric)."""
    return _reduced_solve(basis, mu, guess, cfg, _deflation_roots(roots, None))


def reduced_root(basis: BasisMatrix, mu: float, guesses,
                 cfg: NewtonConfig = NewtonConfig(), roots=()) -> list[np.ndarray]:
    """`roots` if a root is already known at mu, else [u_N] from the first guess
    whose reduced Newton solve converges, [] if none does."""
    if roots:
        return list(roots)
    for guess in guesses:
        result = reduced_newton(basis, mu, guess, cfg)
        if result.converged:
            return [result.u]
    return []


def discover_reduced_solutions(basis: BasisMatrix, mu: float, guesses,
                               cfg: NewtonConfig = NewtonConfig(), roots=(),
                               drive: bool = True) -> list[np.ndarray]:
    """The reduced roots `roots`, already known at mu, and the distinct ones
    `guesses` reach from there (`nlsolve.discover`)."""
    return discover(
        lambda g, found: reduced_deflated_newton(basis, mu, g, found, cfg),
        guesses, RootSet(None, list(roots)), drive).roots


def reduced_morse_index(basis: BasisMatrix, u_n: np.ndarray, mu: float) -> int:
    """Number of eigenvalues <= 0 of the N x N reduced Jacobian at u_N."""
    return int(np.count_nonzero(np.linalg.eigvalsh(reduced_jacobian(basis, u_n, mu)) <= 0.0))

