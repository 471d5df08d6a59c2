"""X-weighted proper orthogonal decomposition, global and per branch.

Modes come from the method of snapshots: the Gramian C_ij = <s_i, s_j>_X is
eigen-decomposed and each mode is the snapshot combination S v / sqrt(lambda),
which is X-orthonormal by construction.  The snapshot count here is at most a
few hundred, so the Gramian route is numerically equivalent to an SVD of the
weighted snapshot matrix and much smaller.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular

from .model import ParametricModel
from .rom import NULL_TOL, BasisMatrix

__all__ = ["RANK_RTOL", "PODResult", "pod_basis", "branchwise_pod"]

# Gramian eigenvalues below this fraction of the largest one are rank noise.
RANK_RTOL = 1e-13


@dataclass
class PODResult:
    basis: BasisMatrix
    singular_values: np.ndarray  # all of them, non-increasing
    rank_deficient: bool = False

    @property
    def n(self) -> int:
        return self.basis.n


def pod_basis(model: ParametricModel, snapshots,
              n_modes: int | None = None) -> PODResult:
    """First n_modes X-orthonormal POD modes of the snapshot set.

    Returns every singular value (square roots of the Gramian spectrum) in
    non-increasing order.  When the snapshot set has rank below n_modes the
    achievable modes are returned and the result is marked rank deficient.
    """
    cols = [np.asarray(s, dtype=float) for s in snapshots]
    # Converged "zero" roots carry Newton residue aligned with the critical
    # eigenvector; compressing them would promote solver noise to a mode.
    # The null threshold matches the enrichment rule in rom.
    cols = [s for s in cols if model.x_norm(s) > NULL_TOL]
    if not cols:
        return PODResult(BasisMatrix(model), np.zeros(0), rank_deficient=True)
    S = np.column_stack(cols)
    gram = S.T @ model.x_apply(S)
    gram = 0.5 * (gram + gram.T)
    evals, evecs = eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    sigma = np.sqrt(evals)
    cutoff = RANK_RTOL * evals[0] if evals[0] > 0.0 else 0.0
    rank = int(np.sum(evals > cutoff))
    keep = rank if n_modes is None else min(n_modes, rank)
    deficient = n_modes is not None and rank < n_modes
    if deficient:
        warnings.warn(f"snapshot set has rank {rank} < requested {n_modes} modes",
                      stacklevel=2)
    modes = S @ evecs[:, :keep] / sigma[:keep] if keep else np.zeros((model.mesh_size, 0))
    if keep:
        # Eigenpairs near the rank cutoff lose X-orthonormality to roundoff
        # amplified by lambda_1/lambda_k; one triangular polish restores it.
        # The factor is lower triangular, so every leading-mode subspace is
        # preserved and the optimality identity survives truncation.
        gram_m = modes.T @ model.x_apply(modes)
        chol = cholesky(0.5 * (gram_m + gram_m.T), lower=True)
        modes = solve_triangular(chol, modes.T, lower=True).T
    # Modes mix snapshots, so no column carries a parameter value.
    return PODResult(BasisMatrix(model, modes), sigma, deficient)


def branchwise_pod(model: ParametricModel, branch_snapshots: dict,
                   n_modes: int | None = None) -> dict:
    """One POD basis per branch label from that branch's snapshots alone.

    Branches whose snapshots carry no energy (the pitchfork's trivial branch
    is identically zero) are excluded with a warning: any basis represents
    them already through zero coefficients.
    """
    out = {}
    for label, snaps in branch_snapshots.items():
        result = pod_basis(model, snaps, n_modes)
        if result.n == 0:
            warnings.warn(f"branch {label!r} has no nonzero snapshots, excluded",
                          stacklevel=2)
            continue
        out[label] = result
    return out
