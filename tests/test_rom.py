"""Basis growth, Galerkin projection, reduced solvers, and persistence."""
import numpy as np
import pytest

from bifrb import model as model_module
from bifrb import rom as rom_module
from bifrb.model import Bratu1D, ChafeeInfante1D, make_model
from bifrb.nlsolve import newton
from bifrb.rom import (BasisMatrix, _euclidean_norm, reduced_deflated_newton,
                       reduced_jacobian, reduced_morse_index, reduced_newton,
                       reduced_residual, reduced_root)


def random_basis(model, rng, n):
    basis = BasisMatrix(model)
    added = 0
    while added < n:
        if basis.enrich(rng.standard_normal(model.mesh_size)).enriched:
            added += 1
    return basis


def test_enrichment_keeps_defect_at_roundoff(bratu, rng):
    basis = BasisMatrix(bratu)
    for k in range(15):
        result = basis.enrich(rng.standard_normal(bratu.mesh_size), mu=float(k))
        assert result.enriched
        assert basis.orthonormality_defect() <= 1e-10
    assert basis.n == 15
    assert basis.mu_values == [float(k) for k in range(15)]


def test_enrich_normalizes_first_column(bratu):
    basis = BasisMatrix(bratu)
    u = bratu.interpolate(lambda x: np.sin(np.pi * x))
    res = basis.enrich(u, mu=1.0)
    assert res.enriched
    assert np.isclose(bratu.x_norm(res.vector), 1.0, rtol=1e-12)
    assert np.allclose(basis.matrix[:, 0], u / bratu.x_norm(u))


def test_duplicate_snapshot_is_rejected_as_redundant(bratu, rng):
    basis = BasisMatrix(bratu)
    u = rng.standard_normal(bratu.mesh_size)
    assert basis.enrich(u).enriched
    res = basis.enrich(2.5 * u)
    assert res.status == "rejected" and res.cause == "redundant"
    assert basis.n == 1


def test_null_snapshots_are_rejected(bratu, rng):
    basis = BasisMatrix(bratu)
    res = basis.enrich(np.zeros(bratu.mesh_size))
    assert res.status == "rejected" and res.cause == "null_snapshot"
    # solver-noise amplitudes must not be normalized into a basis vector
    noise = rng.standard_normal(bratu.mesh_size)
    noise *= 1e-9 / bratu.x_norm(noise)
    assert basis.enrich(noise).cause == "null_snapshot"
    assert basis.n == 0


def test_projection_is_x_orthogonal(bratu, rng):
    basis = random_basis(bratu, rng, 6)
    u = rng.standard_normal(bratu.mesh_size)
    residual = u - basis.lift(basis.project(u))
    # the projection defect is X-orthogonal to every basis vector
    for j in range(basis.n):
        assert abs(bratu.x_inner(residual, basis.matrix[:, j])) < 1e-9


def test_projection_pythagoras(bratu, rng):
    basis = random_basis(bratu, rng, 5)
    u = rng.standard_normal(bratu.mesh_size)
    proj = basis.lift(basis.project(u))
    lhs = bratu.x_norm(u) ** 2
    rhs = bratu.x_norm(proj) ** 2 + basis.projection_error(u) ** 2
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_lift_project_is_identity_on_the_subspace(bratu, rng):
    basis = random_basis(bratu, rng, 4)
    coeffs = rng.standard_normal(4)
    assert np.allclose(basis.project(basis.lift(coeffs)), coeffs, atol=1e-10)
    assert basis.projection_error(basis.lift(coeffs)) < 1e-9


def test_reduced_operators_are_galerkin_projections(chafee, rng):
    basis = random_basis(chafee, rng, 3)
    y = rng.standard_normal(3)
    mu = 9.5
    lifted = basis.lift(y)
    expect_res = basis.matrix.T @ chafee.residual(lifted, mu)
    expect_jac = basis.matrix.T @ chafee.jacobian(lifted, mu) @ basis.matrix
    assert np.allclose(reduced_residual(basis, y, mu), expect_res, atol=1e-12)
    assert np.allclose(reduced_jacobian(basis, y, mu), expect_jac, atol=1e-12)


def sine_basis(model, n):
    """Basis of the first n sine modes, smooth states of order-one amplitude."""
    basis = BasisMatrix(model)
    for k in range(1, n + 1):
        assert basis.enrich(model.interpolate(lambda x: np.sin(k * np.pi * x))).enriched
    return basis


def assert_close(got, expected, rtol=1e-12):
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


def assert_galerkin(basis, y, mu):
    """Reduced operators equal B^T G(B y) and B^T J(B y) B to 1e-12 relative."""
    model, B = basis.model, basis.matrix
    lifted = B @ y
    expect_res = B.T @ model.residual(lifted, mu)
    # J B from the full-order bands (super-, main, subdiagonal), never dense
    bands = model.jacobian_bands(lifted, mu)
    jb = bands[1][:, None] * B
    jb[:-1] += bands[0, 1:, None] * B[1:]
    jb[1:] += bands[2, :-1, None] * B[:-1]
    expect_jac = B.T @ jb
    res = reduced_residual(basis, y, mu)
    jac = reduced_jacobian(basis, y, mu)
    assert_close(res, expect_res)
    assert_close(jac, expect_jac)


def snapshot_basis(model, mus):
    """Basis of full-order roots, the kind the greedy algorithms build."""
    basis = BasisMatrix(model)
    for mu in mus:
        for guess in model.default_guesses:
            result = newton(model, mu, guess)
            if result.converged:
                basis.enrich(result.u, mu)
    return basis


@pytest.mark.parametrize("kind, mus, mu", [
    ("bratu", (1.0, 3.0, 3.5), 2.0),
    ("chafee", (11.0, 14.0), 12.5),
])
def test_projected_operators_match_full_assembly(kind, mus, mu, rng):
    model = make_model(kind, 101)
    bases = [snapshot_basis(model, mus), random_basis(model, rng, 4)]
    for basis in bases:
        assert basis.n >= 2
        for scale in (0.1, 1.0, 3.0):
            assert_galerkin(basis, scale * rng.standard_normal(basis.n), mu)


def test_enrich_drops_the_cached_operators(chafee, rng):
    basis = random_basis(chafee, rng, 2)
    assert_galerkin(basis, rng.standard_normal(2), 9.5)
    assert basis.enrich(rng.standard_normal(chafee.mesh_size)).enriched
    assert_galerkin(basis, rng.standard_normal(3), 9.5)
    # a rejected snapshot leaves the basis, and its operators, as they were
    assert not basis.enrich(basis.matrix[:, 0]).enriched
    assert_galerkin(basis, rng.standard_normal(3), 9.5)


class _QuadratureChafee(ChafeeInfante1D):
    """Chafee without tensors: its reduced operators take the quadrature path."""

    def reduced_tensors(self, phi):
        return None


@pytest.mark.parametrize("mesh, n, tensors", [
    (201, 3, True),
    (3201, 3, True),
    # 2(m + 1) = 64 Gauss points at mesh 31: N^2 = 16 is a quarter of them
    (31, 4, True),
    (31, 5, False),
    # at mesh 3201 the 512 cap binds: N^2 = 484 takes the tensors, 529 not
    (3201, 22, True),
    (3201, 23, False),
])
def test_chafee_operators_from_tensors_only_for_small_bases(mesh, n, tensors, rng):
    model = make_model("chafee", mesh)
    bases = [random_basis(model, rng, n), sine_basis(model, n)]
    # At mesh 3201 B^T J B of smooth columns carries about 5e-12 relative
    # roundoff of its own (J's stiffness entries 2/h swamp its mass entries
    # when J is formed); there the quadrature path alone is the reference.
    full_order = bases if mesh <= 201 else bases[:1]
    for basis in bases:
        assert (basis.galerkin_operators()[2] is not None) == tensors
        quadrature = BasisMatrix(_QuadratureChafee(mesh), basis.matrix)
        for scale in (0.1, 1.0, 3.0):
            y = scale * rng.standard_normal(n)
            for v in (y, -y):
                if basis in full_order:
                    assert_galerkin(basis, v, 12.5)
                assert_close(reduced_residual(basis, v, 12.5),
                             reduced_residual(quadrature, v, 12.5))
                assert_close(reduced_jacobian(basis, v, 12.5),
                             reduced_jacobian(quadrature, v, 12.5))


@pytest.mark.parametrize("block", [1, 7 * 9, 10**6])
def test_chafee_tensors_summed_over_blocks_of_gauss_points(block, chafee, rng, monkeypatch):
    # blocks of one point, of 7 points (the last one short: 404 Gauss points
    # at mesh 201) and of all of them give the same C = -P^T P
    monkeypatch.setattr(model_module, "_PAIR_BLOCK", block)
    phi = random_basis(chafee, rng, 3).galerkin_operators()[0]
    pairs = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), 9)
    lin, cub = chafee.reduced_tensors(phi)
    assert np.array_equal(lin, phi.T @ phi)
    assert_close(cub, -(pairs.T @ pairs))


def test_bratu_gets_no_tensors(bratu, rng):
    basis = random_basis(bratu, rng, 3)
    phi, _, tensors = basis.galerkin_operators()
    assert tensors is None
    assert bratu.reduced_tensors(phi) is None


def test_projected_operators_on_truncated_and_loaded_bases(tmp_path, bratu, chafee, rng):
    for model, mu in ((bratu, 2.0), (chafee, 12.5)):
        basis = random_basis(model, rng, 5)
        assert_galerkin(basis, rng.standard_normal(5), mu)
        sub = basis.truncated(3)
        path = tmp_path / f"{model.kind.value}.csv"
        sub.save(path)
        for b in (sub, basis.truncated(1), BasisMatrix.load(path)):
            # each basis builds its own operators, chafee's tensors included
            tensors = b.galerkin_operators()[2]
            if model is chafee:
                assert [t.shape for t in tensors] == [(b.n, b.n), (b.n ** 2, b.n ** 2)]
            else:
                assert tensors is None
            assert_galerkin(b, rng.standard_normal(b.n), mu)


@pytest.mark.parametrize("kind, mu", [("bratu", 2.0), ("chafee", 12.0)])
def test_reduced_solvers_never_assemble_at_full_order(kind, mu, monkeypatch):
    model = make_model(kind, 101)
    basis = snapshot_basis(model, (mu,))
    guesses = [basis.project(g) for g in model.default_guesses]

    def forbidden(*args, **kwargs):
        raise AssertionError("full-order assembly inside a reduced solve")

    for name in ("residual", "jacobian", "jacobian_bands", "newton_step", "newton_system"):
        monkeypatch.setattr(model, name, forbidden)
    first = reduced_newton(basis, mu, guesses[0])
    assert first.converged
    second = reduced_deflated_newton(basis, mu, guesses[-1], [first.u])
    assert second.iterations > 0


@pytest.mark.parametrize("kind, mu", [("bratu", 2.0), ("chafee", 12.0)])
def test_reduced_solvers_evaluate_the_shared_values_once_per_iterate(kind, mu, monkeypatch):
    model = make_model(kind, 101)
    basis = snapshot_basis(model, (mu,))
    # chafee's basis takes the tensor path, bratu's the quadrature path
    assert (basis.galerkin_operators()[2] is not None) == (kind == "chafee")
    system, calls = rom_module._reduced_system, {"n": 0}

    def counted_system(*args):
        values, residual, jacobian = system(*args)

        def counted(y):
            calls["n"] += 1
            return values(y)

        return counted, residual, jacobian

    monkeypatch.setattr(rom_module, "_reduced_system", counted_system)
    guesses = [basis.project(g) for g in model.default_guesses]
    first = reduced_newton(basis, mu, guesses[0])
    assert first.converged and first.iterations > 1
    assert calls["n"] == first.iterations + 1
    calls["n"] = 0
    second = reduced_deflated_newton(basis, mu, guesses[-1], [first.u])
    assert second.iterations > 1
    assert calls["n"] == second.iterations + 1


class _SingularTensorsChafee(ChafeeInfante1D):
    """Chafee whose tensors L = 1e150 everywhere and C = 0 make every entry of
    the reduced Jacobian K_N - mu w L round to -mu w 1e150 (K_N lies far below
    half its ulp): exactly singular, while the residual and its norm stay
    finite."""

    def reduced_tensors(self, phi):
        n = phi.shape[1]
        return np.full((n, n), 1e150), np.zeros((n * n, n * n))


class _NanJacobianBratu(Bratu1D):
    """Bratu (no tensors, so the quadrature path) with a NaN source derivative:
    a finite residual and a NaN reduced Jacobian."""

    def source_prime(self, v):
        return np.full_like(v, np.nan)


@pytest.mark.parametrize("model_class, cause", [(_SingularTensorsChafee, "singular_jacobian"),
                                                (_NanJacobianBratu, "nonfinite_step")])
def test_broken_reduced_jacobian_is_reported_not_raised(model_class, cause, rng):
    model = model_class(21)
    basis = random_basis(model, rng, 2)
    guess = rng.standard_normal(2)
    assert np.all(np.isfinite(reduced_residual(basis, guess, 9.5)))
    runs = [reduced_newton(basis, 9.5, guess),
            reduced_deflated_newton(basis, 9.5, guess, [np.zeros(2)])]
    for res in runs:
        assert not res.converged
        assert res.cause == cause
        assert res.iterations == 0
        assert np.array_equal(res.u, guess)


def test_reduced_newton_recovers_its_own_snapshot(chafee):
    mu = 12.0
    snap = newton(chafee, mu, chafee.default_guesses[0]).u
    basis = BasisMatrix(chafee)
    basis.enrich(snap, mu)
    res = reduced_newton(basis, mu, basis.project(snap))
    assert res.converged
    assert chafee.x_norm(basis.lift(res.u) - snap) < 1e-8


def test_reduced_root_falls_back_to_the_next_guess(chafee, bratu):
    basis = snapshot_basis(chafee, (12.0,))
    good = basis.project(chafee.default_guess)
    diverging = np.full(basis.n, np.nan)
    assert not reduced_newton(basis, 12.0, diverging).converged
    (root,) = reduced_root(basis, 12.0, [diverging, good])
    assert np.array_equal(root, reduced_newton(basis, 12.0, good).u)
    assert reduced_root(basis, 12.0, [diverging, diverging]) == []
    # beyond the bratu fold (mu = 3.51) no guess converges
    basis = snapshot_basis(bratu, (2.0,))
    assert reduced_root(basis, 5.0, [basis.project(g) for g in bratu.default_guesses]) == []


def test_reduced_newton_requires_columns(chafee):
    with pytest.raises(ValueError):
        reduced_newton(BasisMatrix(chafee), 9.0, np.zeros(0))
    with pytest.raises(ValueError):
        reduced_deflated_newton(BasisMatrix(chafee), 9.0, np.zeros(0), [])


def test_euclidean_norm_is_numpys_norm(rng):
    # the reduced solvers' norm reproduces np.linalg.norm bit for bit
    with np.errstate(over="ignore"):
        for v in (rng.standard_normal(3), rng.standard_normal(17) * 1e-200,
                  np.array([1e200, 1.0]), np.array([np.nan, 1.0]), np.zeros(2)):
            got, expected = _euclidean_norm(v), np.linalg.norm(v)
            assert got == expected or (np.isnan(got) and np.isnan(expected))


def test_reduced_deflation_with_no_roots_is_plain(chafee, rng):
    basis = random_basis(chafee, rng, 4)
    guess = rng.standard_normal(4)
    plain = reduced_newton(basis, 9.0, guess)
    defl = reduced_deflated_newton(basis, 9.0, guess, [])
    assert plain.converged == defl.converged
    assert np.array_equal(plain.u, defl.u)


def test_reduced_deflation_finds_second_reduced_root(chafee):
    mu = 12.0
    plus = newton(chafee, mu, chafee.default_guesses[0]).u
    basis = BasisMatrix(chafee)
    basis.enrich(plus, mu)
    first = reduced_newton(basis, mu, basis.project(plus))
    assert first.converged
    # the mirrored and zero roots also live in the one-dimensional span
    second = reduced_deflated_newton(basis, mu, 0.5 * basis.project(plus), [first.u])
    assert second.converged
    assert np.linalg.norm(second.u - first.u) > 1e-3


def test_truncation_keeps_leading_columns(bratu, rng):
    basis = random_basis(bratu, rng, 6)
    sub = basis.truncated(3)
    assert sub.n == 3
    assert np.array_equal(sub.matrix, basis.matrix[:, :3])
    assert sub.orthonormality_defect() <= 1e-10
    with pytest.raises(ValueError):
        basis.truncated(7)
    with pytest.raises(ValueError):
        basis.truncated(-1)


def test_save_load_roundtrip(tmp_path, chafee, rng):
    basis = random_basis(chafee, rng, 4)
    basis.mu_values = [6.0, 7.5, None, 9.0]
    path = tmp_path / "basis.csv"
    basis.save(path)
    loaded = BasisMatrix.load(path)
    assert loaded.n == 4
    assert loaded.model.kind == chafee.kind
    assert loaded.model.mesh_size == chafee.mesh_size
    assert loaded.mu_values == [6.0, 7.5, None, 9.0]
    assert np.allclose(loaded.matrix, basis.matrix, atol=1e-14)
    assert loaded.orthonormality_defect() <= 1e-10


def test_empty_basis_round_trips(tmp_path, chafee):
    # an empty basis is saved as mesh_size blank lines
    path = tmp_path / "basis.csv"
    BasisMatrix(chafee).save(path)
    loaded = BasisMatrix.load(path)
    assert loaded.n == 0 and loaded.matrix.shape == (chafee.mesh_size, 0)
    assert loaded.mu_values == []


def test_load_rejects_tampered_columns(tmp_path, chafee, rng):
    basis = random_basis(chafee, rng, 3)
    path = tmp_path / "basis.csv"
    basis.save(path)
    saved = np.loadtxt(path, delimiter=",")
    # break orthonormality, or write one non-finite entry; keep the shape
    for column, value, problem in [(3.0 * saved[:, 1], None, "not X-orthonormal"),
                                   (saved[:, 1], np.nan, "non-finite"),
                                   (saved[:, 1], np.inf, "non-finite")]:
        cols = saved.copy()
        cols[:, 1] = column
        if value is not None:
            cols[7, 1] = value
        np.savetxt(path, cols, delimiter=",", fmt="%.17g")
        with pytest.raises(ValueError, match=problem):
            BasisMatrix.load(path)


def test_padded_reduced_guess_lifts_to_same_state(chafee, rng):
    basis = random_basis(chafee, rng, 5)
    coeffs = rng.standard_normal(3)
    small = basis.truncated(3).lift(coeffs)
    padded = np.concatenate([coeffs, np.zeros(2)])
    assert np.allclose(basis.lift(padded), small, atol=1e-12)


@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_reduced_morse_index_on_a_complete_basis_is_the_full_order_one(kind, rng):
    # B^T Jac B with B invertible has the inertia of Jac (Sylvester)
    model = make_model(kind, 6)
    basis = random_basis(model, rng, 6)
    for mu in (0.0, 3.0, 40.0, 400.0):
        u = 0.5 * rng.standard_normal(6)
        assert reduced_morse_index(basis, basis.project(u), mu) == model.morse_index(u, mu)
