"""Proper orthogonal decomposition with the energy inner product."""
import numpy as np
import pytest

from bifrb.model import ParameterSpace
from bifrb.nlsolve import newton
from bifrb.pod import PODResult, branchwise_pod, pod_basis


def fold_snapshots(bratu, lo=0.5, hi=2.0, count=9):
    mus = np.linspace(lo, hi, count)
    snaps = []
    for mu in mus:
        res = newton(bratu, mu, bratu.default_guess)
        assert res.converged
        snaps.append(res.u)
    return snaps, mus


def test_single_snapshot_gives_normalized_mode(bratu):
    u = bratu.interpolate(lambda x: np.sin(np.pi * x))
    result = pod_basis(bratu, [u])
    assert result.n == 1
    assert not result.rank_deficient
    assert np.isclose(bratu.x_norm(result.basis.matrix[:, 0]), 1.0, rtol=1e-12)
    assert np.isclose(result.singular_values[0], bratu.x_norm(u), rtol=1e-12)


def test_duplicated_snapshots_have_rank_one(bratu, rng):
    u = rng.standard_normal(bratu.mesh_size)
    with pytest.warns(UserWarning, match="rank 1"):
        result = pod_basis(bratu, [u, u, u], n_modes=2)
    assert result.n == 1
    assert result.rank_deficient
    assert result.singular_values.shape == (3,)
    assert result.singular_values[1] <= 1e-6 * result.singular_values[0]


def test_modes_are_x_orthonormal_and_ordered(bratu, rng):
    snaps = [rng.standard_normal(bratu.mesh_size) for _ in range(8)]
    result = pod_basis(bratu, snaps)
    assert result.n == 8
    assert result.basis.orthonormality_defect() <= 1e-10
    sv = result.singular_values
    assert np.all(np.diff(sv) <= 1e-12 * sv[0])


def test_projection_identity_on_snapshots(bratu, rng):
    # sum of squared X-projection errors over snapshots = tail spectrum energy
    snaps = [rng.standard_normal(bratu.mesh_size) for _ in range(6)]
    result = pod_basis(bratu, snaps, n_modes=3)
    tail = float(np.sum(result.singular_values[3:] ** 2))
    total = sum(result.basis.projection_error(s) ** 2 for s in snaps)
    assert np.isclose(total, tail, rtol=1e-8)


def test_truncation_request_limits_modes(bratu, rng):
    snaps = [rng.standard_normal(bratu.mesh_size) for _ in range(6)]
    result = pod_basis(bratu, snaps, n_modes=2)
    assert result.n == 2
    assert not result.rank_deficient
    assert result.singular_values.shape == (6,)


def test_null_snapshots_are_filtered(chafee, rng):
    noise = rng.standard_normal(chafee.mesh_size)
    noise *= 1e-9 / chafee.x_norm(noise)
    result = pod_basis(chafee, [np.zeros(chafee.mesh_size), noise])
    assert result.n == 0
    assert result.rank_deficient
    assert result.singular_values.shape == (0,)
    assert result.basis.matrix.shape == (chafee.mesh_size, 0)


def test_mixed_null_and_real_snapshots(chafee):
    root = newton(chafee, 12.0, chafee.default_guesses[0]).u
    result = pod_basis(chafee, [np.zeros(chafee.mesh_size), root], n_modes=1)
    assert result.n == 1
    assert result.basis.projection_error(root) <= 1e-8 * chafee.x_norm(root)


def test_mu_labels_are_dropped(bratu, rng):
    snaps = [rng.standard_normal(bratu.mesh_size) for _ in range(3)]
    result = pod_basis(bratu, snaps, n_modes=2)
    assert result.basis.mu_values == [None, None]


def test_branchwise_pod_excludes_trivial_branch(chafee):
    plus = newton(chafee, 12.0, chafee.default_guesses[0]).u
    minus = newton(chafee, 12.0, chafee.default_guesses[1]).u
    snapshots = {0: [np.zeros(chafee.mesh_size)], 1: [plus], 2: [minus]}
    with pytest.warns(UserWarning, match="no nonzero snapshots"):
        bases = branchwise_pod(chafee, snapshots, n_modes=1)
    assert set(bases) == {1, 2}
    assert all(isinstance(r, PODResult) and r.n == 1 for r in bases.values())


def test_fold_branch_spectrum_regression(bratu):
    # 51 lower-branch snapshots up to the fold compress to a handful of modes
    mus = np.linspace(0.5, 3.5, 51)
    snaps = []
    carried = bratu.default_guess
    for mu in mus:
        res = newton(bratu, float(mu), carried)
        assert res.converged
        carried = res.u
        snaps.append(res.u)
    with pytest.warns(UserWarning, match="rank"):
        result = pod_basis(bratu, snaps, n_modes=20)
    assert result.rank_deficient
    assert 3 <= result.n <= 10
    sv = result.singular_values
    assert sv[15] <= 1e-8 * sv[0]
    assert np.all(np.diff(sv) <= 1e-12 * sv[0])
    assert result.basis.orthonormality_defect() <= 1e-10
    # retained modes reproduce every snapshot to solver accuracy
    worst = max(result.basis.projection_error(s) for s in snaps)
    assert worst <= 1e-6
