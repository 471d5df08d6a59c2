"""Reduced basis handling and Galerkin-projected solvers.

A basis is a dense N_h x N matrix B with X-orthonormal columns; the reduced
residual and Jacobian are the plain Galerkin projections

    G_N(u_N) = B^T G(B u_N),        Jac_N(u_N) = B^T Jac(B u_N) B,

with no hyper-reduction.  They are evaluated without lifting to full order:
with Phi the values of the basis columns at the model's Gauss points and
K_N = B^T X B, both computed once per basis,

    G_N(u_N) = K_N u_N - mu w Phi^T g(Phi u_N),
    Jac_N(u_N) = K_N - mu w Phi^T diag(g'(Phi u_N)) Phi,

which are the quadrature sums of the full-order load vector and weighted mass
matrix taken in another order (w the Gauss weight, g the model's source).  A
reduced Newton iteration thus costs O(m N^2) for m interior nodes.  Reduced
Newton iterates on coefficient vectors and converges when ||G_N||_2 drops
below the tolerance: since the basis is X-orthonormal, that is the dual norm
of the Galerkin residual on span(B), the criterion of the full-order solvers.
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

    The Galerkin operators (Phi, K_N) of the reduced solvers are built on first
    use and dropped when `enrich` appends a column; the columns are not meant
    to be changed in place.
    """

    def __init__(self, model: ParametricModel, columns: np.ndarray | None = None,
                 mu_values: list | None = None):
        self.model = model
        if columns is None:
            columns = np.zeros((model.mesh_size, 0))
        self._columns = np.asarray(columns, dtype=float).reshape(model.mesh_size, -1)
        # Parameter value each column's snapshot was taken at (None if unknown).
        self.mu_values = list(mu_values) if mu_values is not None else [None] * self._columns.shape[1]
        self._operators: tuple[np.ndarray, np.ndarray] | None = None

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

    def galerkin_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(Phi, K_N): the columns at the Gauss points and B^T X B, cached."""
        if self._operators is None:
            phi = self.model.gauss_matrix(self._columns)
            k_n = self._columns.T @ self.model.x_apply(self._columns)
            self._operators = (phi, k_n)
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

    def save(self, csv_path, json_path=None, strategy: str | None = None) -> None:
        """Write the columns to csv_path and the metadata to json_path.

        `strategy`, the method that built the basis, is recorded when given,
        so the basis can later be scored the way its own run scored it.
        """
        csv_path = Path(csv_path)
        json_path = Path(json_path) if json_path else csv_path.with_suffix(".json")
        np.savetxt(csv_path, self._columns, delimiter=",", fmt="%.17g")
        meta = {
            "model_kind": self.model.kind.value,
            "mesh_size": self.model.mesh_size,
            "n_basis": self.n,
            "mu_train": [None if m is None else float(m) for m in self.mu_values],
        }
        if strategy is not None:
            meta["strategy"] = strategy
        json_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, csv_path, json_path=None, model: ParametricModel | None = None) -> "BasisMatrix":
        csv_path = Path(csv_path)
        json_path = Path(json_path) if json_path else csv_path.with_suffix(".json")
        meta = json.loads(json_path.read_text())
        if model is None:
            model = make_model(meta["model_kind"], meta["mesh_size"])
        elif model.kind.value != meta["model_kind"] or model.mesh_size != meta["mesh_size"]:
            raise ValueError("basis metadata does not match the supplied model")
        # An empty basis is saved as blank lines, which loadtxt cannot shape.
        cols = (np.loadtxt(csv_path, delimiter=",", ndmin=2) if meta["n_basis"]
                else np.zeros((meta["mesh_size"], 0)))
        if cols.shape != (meta["mesh_size"], meta["n_basis"]):
            raise ValueError("basis matrix shape does not match its metadata")
        mus = meta["mu_train"]
        if not isinstance(mus, list) or len(mus) != meta["n_basis"]:
            raise ValueError(f"mu_train must list one parameter per column (got {mus!r})")
        basis = cls(model, cols, mus)
        defect = basis.orthonormality_defect()
        if defect > 1e-10:
            raise ValueError(f"loaded basis is not X-orthonormal (defect {defect:.3e})")
        return basis


def reduced_residual(basis: BasisMatrix, u_n: np.ndarray, mu: float) -> np.ndarray:
    """B^T G(B u_N; mu), summed at the Gauss points."""
    phi, k_n = basis.galerkin_operators()
    model = basis.model
    u_n = np.asarray(u_n, dtype=float)
    return k_n @ u_n - (mu * model.gauss_weight) * (phi.T @ model.source(phi @ u_n))


def reduced_jacobian(basis: BasisMatrix, u_n: np.ndarray, mu: float) -> np.ndarray:
    """B^T Jac(B u_N; mu) B, summed at the Gauss points."""
    phi, k_n = basis.galerkin_operators()
    model = basis.model
    weights = model.source_prime(phi @ np.asarray(u_n, dtype=float))
    return k_n - (mu * model.gauss_weight) * (phi.T @ (weights[:, None] * phi))


def _reduced_solve(basis: BasisMatrix, mu: float, guess, cfg: NewtonConfig,
                   roots: RootSet) -> SolveResult:
    """`_newton_core` on the reduced system, Euclidean norms throughout."""
    if basis.n == 0:
        raise ValueError("reduced solve requires a nonempty basis")
    return _newton_core(
        lambda y: reduced_residual(basis, y, mu),
        lambda y, r: np.linalg.solve(reduced_jacobian(basis, y, mu), -r),
        guess, cfg, _euclidean_norm, roots)


def reduced_newton(basis: BasisMatrix, mu: float, guess: np.ndarray,
                   cfg: NewtonConfig | None = None) -> SolveResult:
    """Newton on the reduced system; converges on the Euclidean (dual) norm of G_N."""
    return _reduced_solve(basis, mu, guess, cfg or NewtonConfig(), RootSet())


def reduced_deflated_newton(basis: BasisMatrix, mu: float, guess: np.ndarray,
                            roots, cfg: NewtonConfig | None = None) -> SolveResult:
    """Reduced Newton repelled from the given reduced roots (Euclidean metric)."""
    cfg = cfg or NewtonConfig()
    return _reduced_solve(basis, mu, guess, cfg, _deflation_roots(roots, None, cfg))


def reduced_root(basis: BasisMatrix, mu: float, guesses,
                 cfg: NewtonConfig | None = None, roots=()) -> list[np.ndarray]:
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
                               cfg: NewtonConfig | None = None, roots=(),
                               drive: bool = True) -> list[np.ndarray]:
    """The reduced roots `roots`, already known at mu, and the distinct ones
    `guesses` reach from there (`nlsolve.discover`)."""
    cfg = cfg or NewtonConfig()
    return discover(
        lambda g, found: reduced_deflated_newton(basis, mu, g, found, cfg),
        guesses, RootSet(None, list(roots)), drive).roots


def reduced_morse_index(basis: BasisMatrix, u_n: np.ndarray, mu: float) -> int:
    """Number of eigenvalues <= 0 of the N x N reduced Jacobian at u_N."""
    return int(np.count_nonzero(np.linalg.eigvalsh(reduced_jacobian(basis, u_n, mu)) <= 0.0))

