"""Finite element assembly, model constants, and the parameter grid type."""
import tracemalloc

import numpy as np
import pytest
from conftest import stiffness_matrix
from scipy.linalg import eigh, solve_banded
from scipy.linalg.lapack import dpbtrs

from bifrb import model as model_module
from bifrb import nlsolve as nlsolve_module
from bifrb.estimators import inf_sup, nonlinear_estimate, residual_dual_norm
from bifrb.model import (RHO4, ChafeeInfante1D, Bratu1D, ModelKind,
                         ParameterSpace, make_model)
from bifrb.nlsolve import deflated_newton, discover_solutions, newton
from bifrb.pod import pod_basis
from bifrb.rom import BasisMatrix


def p1_mass_matrix(m):
    h = 1.0 / (m + 1)
    return (np.diag(np.full(m, 2.0 * h / 3.0))
            + np.diag(np.full(m - 1, h / 6.0), 1)
            + np.diag(np.full(m - 1, h / 6.0), -1))


def general_x_apply(model, v):
    """`ParametricModel.x_apply`'s path for any input, verbatim."""
    v = np.asarray(v, dtype=float).T
    diag, off = model.x_bands[1], model.x_bands[0, 1:]
    out = diag * v
    out[..., :-1] += off * v[..., 1:]
    out[..., 1:] += off * v[..., :-1]
    return out.T


def test_x_apply_of_a_vector_is_the_general_path_bit_for_bit(bratu, rng):
    m = bratu.mesh_size
    v = rng.standard_normal(m)
    v[:3] = [0.0, -0.0, -0.0]  # signed zeros must agree too
    wide = rng.standard_normal(3 * m)
    for x in (v, wide[::3], wide[1::3], -np.arange(m), list(v)):
        got, expect = bratu.x_apply(x), general_x_apply(bratu, x)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_stiffness_matrix_is_scaled_tridiagonal(bratu, rng):
    # X is kept as symmetric bands only; its products match the dense formula
    m = bratu.mesh_size
    h = 1.0 / (m + 1)
    bands = bratu.x_bands
    assert bands.shape == (3, m)
    assert np.allclose(bands[1], 2.0 / h)
    assert np.allclose(bands[0, 1:], -1.0 / h)
    assert np.array_equal(bands[0, 1:], bands[2, :-1])
    X = stiffness_matrix(m)
    v, V = rng.standard_normal(m), rng.standard_normal((m, 4))
    assert np.allclose(bratu.x_apply(v), X @ v, rtol=1e-13, atol=1e-13 * np.abs(X @ v).max())
    assert np.allclose(bratu.x_apply(V), X @ V, rtol=1e-13, atol=1e-13 * np.abs(X @ V).max())
    assert np.array_equal(bratu.x_apply(V)[:, 2], bratu.x_apply(V[:, 2]))


def test_x_norm_matches_piecewise_derivative_sum(bratu, rng):
    u = rng.standard_normal(bratu.mesh_size)
    h = 1.0 / (bratu.mesh_size + 1)
    ext = np.concatenate([[0.0], u, [0.0]])
    direct = np.sqrt(np.sum(np.diff(ext) ** 2) / h)
    assert np.isclose(bratu.x_norm(u), direct, rtol=1e-12)


def test_x_norm_of_interpolated_parabola(bratu):
    # |x(1-x)|_{H1_0}^2 = 1/3 exactly; the interpolant agrees to O(h^2)
    u = bratu.interpolate(lambda x: x * (1.0 - x))
    assert abs(bratu.x_norm(u) ** 2 - 1.0 / 3.0) < 1e-4


def test_bratu_residual_at_zero_state_is_load_vector(bratu):
    mu = 1.7
    h = 1.0 / (bratu.mesh_size + 1)
    res = bratu.residual(np.zeros(bratu.mesh_size), mu)
    # -mu * integral of each hat function, exact under two-point Gauss
    assert np.allclose(res, -mu * h * np.ones(bratu.mesh_size), rtol=1e-12)


def test_bratu_jacobian_at_zero_state(bratu):
    mu = 0.9
    jac = bratu.jacobian(np.zeros(bratu.mesh_size), mu)
    expect = stiffness_matrix(bratu.mesh_size) - mu * p1_mass_matrix(bratu.mesh_size)
    assert np.allclose(jac, expect, atol=1e-12)


def test_chafee_residual_linearizes_for_small_states(chafee, rng):
    mu = 8.0
    eps = 1e-6
    v = rng.standard_normal(chafee.mesh_size)
    res = chafee.residual(eps * v, mu)
    linear = (stiffness_matrix(chafee.mesh_size) - mu * p1_mass_matrix(chafee.mesh_size)) @ (eps * v)
    assert np.linalg.norm(res - linear) < 1e-3 * eps * np.linalg.norm(linear)


@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_jacobian_matches_finite_differences(kind, rng):
    model = make_model(kind, mesh_size=41)
    for _ in range(10):
        u = rng.standard_normal(model.mesh_size)
        d = rng.standard_normal(model.mesh_size)
        mu = float(rng.uniform(*model.default_interval()))
        eps = 1e-6
        fd = (model.residual(u + eps * d, mu) - model.residual(u - eps * d, mu)) / (2 * eps)
        jd = model.jacobian(u, mu) @ d
        assert np.linalg.norm(fd - jd) <= 1e-6 * max(1.0, np.linalg.norm(jd))


# Parameters just before the bratu fold (mu* ~ 3.5138) and the chafee
# pitchfork (pi^2), with a parameter on the far side of each for a root state.
NEAR_CRITICAL = {"bratu": (3.5, 3.0), "chafee": (9.8, 11.0)}


@pytest.mark.parametrize("mesh", [101, 201])
@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_banded_newton_step_matches_dense_solve(kind, mesh):
    model = make_model(kind, mesh_size=mesh)
    mu, mu_root = NEAR_CRITICAL[kind]
    root = newton(model, mu_root, model.default_guesses[-1])
    assert root.converged
    for u in model.default_guesses + [root.u]:
        r = model.residual(u, mu)
        dense = np.linalg.solve(model.jacobian(u, mu), -r)
        banded = model.newton_step(u, mu, r)
        assert model.x_norm(banded - dense) <= 1e-12 * model.x_norm(dense)


@pytest.mark.parametrize("mesh", [101, 201])
def test_banded_newton_step_is_backward_stable_near_singularity(mesh):
    # On the lower bratu root next to the fold and on a small state next to
    # the pitchfork, Jac is nearly singular, so two stable solves may differ
    # by cond * eps; what must hold is a roundoff-level backward error.
    bratu, chafee = make_model("bratu", mesh), make_model("chafee", mesh)
    lower = newton(bratu, 3.51, bratu.default_guess)
    assert lower.converged
    cases = [(bratu, 3.51, lower.u), (chafee, 9.87, 0.01 * chafee.default_guess)]
    for model, mu, u in cases:
        jac = model.jacobian(u, mu)
        assert np.linalg.cond(jac) > 1e4
        r = model.residual(u, mu) + 1e-3 * np.sin(np.arange(mesh))
        du = model.newton_step(u, mu, r)
        scale = np.linalg.norm(jac, np.inf) * np.linalg.norm(du, np.inf) + np.linalg.norm(r, np.inf)
        assert np.linalg.norm(jac @ du + r, np.inf) <= 1e-14 * scale


# -- bit-for-bit reference ---------------------------------------------------
# The assembly, the Newton step and the norms in their plain form: Gauss
# products formed on every call, `np.concatenate` padding, the weight applied
# per product, scipy's `solve_banded` and numpy's scalar sqrt.  The model must
# reproduce them exactly, so that its roots, iteration counts and CSVs are
# those of these formulas.

_T = np.array([0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0))])


class _ReferenceFormulas:
    def _gauss_values(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.mesh_size,):
            raise ValueError(f"state vector must have shape ({self.mesh_size},)")
        ue = np.concatenate([[0.0], u, [0.0]])
        left, right = ue[:-1], ue[1:]
        return left[:, None] * (1.0 - _T) + right[:, None] * _T

    def _load(self, values):
        w = self.gauss_weight
        contrib_left = w * values @ (1.0 - _T)
        contrib_right = w * values @ _T
        return contrib_right[:-1] + contrib_left[1:]

    def _weighted_mass_bands(self, weights):
        w = self.gauss_weight
        d11 = w * weights @ (1.0 - _T) ** 2
        d22 = w * weights @ _T**2
        d12 = w * weights @ (_T * (1.0 - _T))
        M = np.zeros((3, self.mesh_size))
        M[1] = d22[:-1] + d11[1:]
        M[0, 1:] = d12[1:-1]
        M[2, :-1] = d12[1:-1]
        return M

    # The value-level step, which `newton_step` and the solvers' Newton
    # system both call; `steps` counts its calls.
    steps = 0

    def _step_from(self, v, mu, r):
        self.steps += 1
        return solve_banded((1, 1), self._bands_from(v, mu), -r, check_finite=False)

    def x_norm(self, u):
        q = self.x_inner(u, u)
        if not np.isfinite(q):
            return float("inf")
        return float(np.sqrt(max(q, 0.0)))

    def x_dual_norm(self, g):
        q = float(g @ dpbtrs(self._x_chol, g)[0])
        if not np.isfinite(q):
            return float("inf")
        return float(np.sqrt(max(q, 0.0)))


class _ReferenceBratu(_ReferenceFormulas, Bratu1D):
    pass


class _ReferenceChafee(_ReferenceFormulas, ChafeeInfante1D):
    pass


REFERENCE = {"bratu": _ReferenceBratu, "chafee": _ReferenceChafee}
REFERENCE_MUS = {"bratu": (1.0, 3.51), "chafee": (9.87, 12.0)}


def _step_or_error(model, u, mu, r):
    try:
        return model.newton_step(u, mu, r)
    except np.linalg.LinAlgError:
        return "LinAlgError"


@pytest.mark.parametrize("mesh", [1, 2, 3, 201, 801])
@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_assembly_and_step_equal_the_reference_formulas_bit_for_bit(kind, mesh, rng):
    model, ref = make_model(kind, mesh), REFERENCE[kind](mesh)
    # Many random states: on the 1x1 and 2x2 products of the coarsest meshes,
    # some changes of the operation order round differently on a few inputs only.
    states = model.default_guesses + [np.full(mesh, np.nan), np.full(mesh, 1e200)] + [
        scale * rng.standard_normal(mesh) for scale in (0.3, 1.0, 3.0) for _ in range(4)]
    if kind == "bratu":
        lower = newton(model, 3.51, model.default_guess)  # the lower root next to the fold
        assert lower.converged or mesh < 201
        states.append(lower.u)
    with np.errstate(all="ignore"):
        for mu in REFERENCE_MUS[kind]:
            for u in states:
                r = model.residual(u, mu)
                assert np.array_equal(r, ref.residual(u, mu), equal_nan=True)
                assert model.x_norm(u) == ref.x_norm(u)
                assert model.x_dual_norm(r) == ref.x_dual_norm(r)
                assert np.array_equal(model.jacobian_bands(u, mu), ref.jacobian_bands(u, mu),
                                      equal_nan=True)
                got, want = _step_or_error(model, u, mu, r), _step_or_error(ref, u, mu, r)
                assert type(got) is type(want)
                assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("kind, mu", [("bratu", 1.0), ("bratu", 3.51), ("bratu", 3.6),
                                      ("chafee", 9.87), ("chafee", 12.0)])
def test_discovery_equals_the_reference_formulas_bit_for_bit(kind, mu, monkeypatch):
    # Every Newton run of the discovery, converged or not, ends on the same
    # iterate after the same number of iterations for the same cause.
    core, runs = nlsolve_module._newton_core, []

    def recording_core(*args, **kwargs):
        result = core(*args, **kwargs)
        runs[-1].append(result)
        return result

    monkeypatch.setattr(nlsolve_module, "_newton_core", recording_core)
    roots, ref = [], REFERENCE[kind](201)
    for model in (make_model(kind, 201), ref):
        runs.append([])
        roots.append(discover_solutions(model, mu, model.default_guesses).roots)
    (got, want), (got_runs, want_runs) = roots, runs
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(got_runs) > len(got)
    # the reference's own step made every step of its runs (a run that stops
    # on a step it took, for no progress or a stall, counts one step more)
    assert ref.steps >= sum(r.iterations for r in want_runs) > 0
    assert [(r.iterations, r.cause) for r in got_runs] == [(r.iterations, r.cause) for r in want_runs]
    for a, b in zip(got_runs, want_runs):
        assert np.array_equal(a.u, b.u, equal_nan=True)
        assert np.array_equal(a.residual_norm, b.residual_norm, equal_nan=True)


class _KeptBandsBratu(Bratu1D):
    """Bratu with a non-symmetric Jacobian, whose bands are an array it keeps."""

    def _bands_from(self, v, mu):
        self.kept = super()._bands_from(v, mu)
        self.kept[2] *= 0.5
        return self.kept


def test_newton_step_solves_non_symmetric_bands_and_leaves_them_intact(rng):
    model = _KeptBandsBratu(201)
    u = rng.standard_normal(model.mesh_size)
    r = model.residual(u, 1.0)
    bands, r_before = model.jacobian_bands(u, 1.0).copy(), r.copy()
    du = model.newton_step(u, 1.0, r)
    assert np.array_equal(model.kept, bands)
    assert np.array_equal(r, r_before)
    assert np.allclose(model.jacobian(u, 1.0) @ du, -r, rtol=0.0, atol=1e-10 * np.abs(r).max())


def test_jacobian_expands_its_bands(chafee, rng):
    u = rng.standard_normal(chafee.mesh_size)
    bands = chafee.jacobian_bands(u, 12.0)
    jac = chafee.jacobian(u, 12.0)
    assert bands.shape == (3, chafee.mesh_size)
    assert bands[0, 0] == 0.0 and bands[2, -1] == 0.0
    assert np.array_equal(np.diag(jac), bands[1])
    assert np.array_equal(np.diag(jac, 1), bands[0, 1:])
    assert np.array_equal(np.diag(jac, -1), bands[2, :-1])
    assert np.count_nonzero(jac - np.triu(np.tril(jac, 1), -1)) == 0


def test_chafee_residual_matches_cubic_power_formula(chafee, rng):
    # the source is evaluated as v - v*v*v; the textbook v - v**3 agrees to roundoff
    states = [chafee.default_guess, -1.3 * chafee.default_guess,
              rng.standard_normal(chafee.mesh_size)]
    for u in states:
        vals = chafee._gauss_values(u)
        for mu in (5.0, 9.8, 15.0):
            # the banded X product (checked against the dense formula on its own)
            # keeps roundoff of K u, ~400 times larger than g, out of the comparison
            expect = chafee.x_apply(u) - mu * chafee._load(vals - vals**3)
            got = chafee.residual(u, mu)
            assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)


@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_gauss_matrix_holds_the_gauss_values_of_each_column(kind, rng):
    model = make_model(kind, 31)
    cols = rng.standard_normal((31, 3))
    phi = model.gauss_matrix(cols)
    assert phi.shape == (64, 3)
    for j in range(3):
        assert np.array_equal(phi[:, j], model._gauss_values(cols[:, j]).ravel())
    coeffs = rng.standard_normal(3)
    assert np.allclose(phi @ coeffs, model._gauss_values(cols @ coeffs).ravel(),
                       rtol=0, atol=1e-14)


def test_residual_rejects_wrong_shape(bratu):
    with pytest.raises(ValueError):
        bratu.residual(np.zeros(7), 1.0)


def test_dual_norm_rejects_wrong_shape(bratu):
    with pytest.raises(ValueError):
        bratu.x_dual_norm(np.ones(7))


def test_dual_norm_of_non_finite_functional_is_inf(chafee, rng):
    # a NaN entry, or one whose quadratic form overflows, reads inf like x_norm
    for bad in (np.nan, 1e200):
        g = rng.standard_normal(chafee.mesh_size)
        g[17] = bad
        with np.errstate(over="ignore"):
            assert chafee.x_dual_norm(g) == np.inf
            assert chafee.x_norm(g) == np.inf


@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_model_holds_no_dense_operator(kind, monkeypatch):
    m = 61
    model = make_model(kind, m)

    def forbidden(*args, **kwargs):
        raise AssertionError("banded operator expanded to a dense matrix")

    monkeypatch.setattr(model_module, "_expand_bands", forbidden)
    mu = 12.0 if kind == "chafee" else 2.0
    root = newton(model, mu, model.default_guess)
    assert root.converged
    deflated_newton(model, mu, model.default_guesses[-1], [root.u])
    assert inf_sup(model, root.u, mu) > 0.0
    assert residual_dual_norm(model, root.u, mu) < 1e-9
    assert model.lipschitz_constant(root.u, mu, 0.1) > 0.0
    assert nonlinear_estimate(model, root.u, mu).tau < 1.0
    basis = BasisMatrix(model)
    for guess in model.default_guesses:
        basis.enrich(guess)
    basis.project(root.u)
    pod_basis(model, [root.u, *model.default_guesses], 2)
    dense = [name for name, value in vars(model).items()
             if isinstance(value, np.ndarray) and value.shape == (m, m)]
    assert dense == []


def test_inf_sup_allocates_no_dense_matrix_at_mesh_3201():
    # one m x m array of doubles would take 82 MB; Lanczos keeps 32 vectors
    model = make_model("chafee", 3201)
    for u in (model.default_guess, np.ones(3201)):  # certified, and bisected
        tracemalloc.start()
        try:
            assert inf_sup(model, u, 12.0) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3201**2 * 8 / 20


def test_embedding_constant_sup_norm_is_half(bratu):
    assert bratu.embedding_constant(np.inf) == 0.5


def discrete_rho4(model):
    """Dense reference: the discrete L4 constant of the P1 space under the
    two-point Gauss rule, sup sqrt(int v^4) / int v'^2 = rho_4^2, found by the
    fixed point whose stationarity condition is the generalized eigenproblem
    W(v) z = lam X z, W the v^2-weighted mass matrix; O(m^3) a step."""
    def quartic_root(v):
        return np.sqrt(model.gauss_weight * np.sum(model._gauss_values(v) ** 4))

    x_dense = stiffness_matrix(model.mesh_size)
    v = model.interpolate(lambda x: np.sin(np.pi * x))
    v = v / model.x_norm(v)
    ratio = quartic_root(v)
    for _ in range(500):
        b = model._weighted_mass_bands(model._gauss_values(v) ** 2)
        W = np.diag(b[1]) + np.diag(b[0, 1:], 1) + np.diag(b[2, :-1], -1)
        z = eigh(W, x_dense, subset_by_index=[model.mesh_size - 1] * 2)[1][:, 0]
        v = z / model.x_norm(z)
        new_ratio = quartic_root(v)
        if abs(new_ratio - ratio) < 1e-8:
            return float(np.sqrt(new_ratio))
        ratio = new_ratio
    raise AssertionError("L4 fixed point did not converge within 500 iterations")


def test_embedding_constant_l4_is_the_sharp_continuous_constant():
    assert abs(RHO4 - 0.35491397112117784) < 1e-15
    assert make_model("chafee", 3201).embedding_constant(4) == RHO4
    with pytest.raises(ValueError):
        make_model("chafee", 5).embedding_constant(2)
    # every discrete constant lies below the continuous one ...
    gaps = {}
    for m in (1, 2, 3, 5, 15, 31, 63, 127):
        rho = discrete_rho4(make_model("chafee", m))
        assert rho <= RHO4
        gaps[m + 1] = (RHO4 - rho) / RHO4
    # ... and converges to it at O(h^2): the gap shrinks about 4x per halving of h
    for n in (16, 32, 64):
        assert gaps[n] >= 3.0 * gaps[2 * n]


def l4_norm_p1(model, u):
    """Exact L4 norm of the piecewise-linear function with nodal values u."""
    ext = np.concatenate([[0.0], u, [0.0]])
    h = 1.0 / (model.mesh_size + 1)
    total = 0.0
    for a, b in zip(ext[:-1], ext[1:]):
        if np.isclose(a, b):
            total += h * a ** 4
        else:
            total += h * (b ** 5 - a ** 5) / (5.0 * (b - a))
    return total ** 0.25


def test_embedding_inequalities_hold_on_random_states(chafee, rng):
    rho4 = chafee.embedding_constant(4)
    for _ in range(20):
        u = rng.standard_normal(chafee.mesh_size)
        xn = chafee.x_norm(u)
        assert np.max(np.abs(u)) <= 0.5 * xn * (1.0 + 1e-12)
        assert l4_norm_p1(chafee, u) <= rho4 * xn * (1.0 + 1e-10)


def test_value_at_is_exact_for_interpolated_linears(bratu):
    u = bratu.interpolate(lambda x: 3.0 * x)  # nodal values only; bc not used here
    for x in (0.1234, 0.5, 0.875):
        # interior evaluation interpolates the nodal data linearly
        assert abs(bratu.value_at(u, x) - 3.0 * x) < 1e-10
    assert bratu.value_at(u, 0.0) == 0.0


def test_midpoint_value_hits_center_node(chafee):
    u = chafee.interpolate(lambda x: np.sin(np.pi * x))
    assert abs(chafee.midpoint_value(u) - 1.0) < 1e-12


def test_norms_survive_overflowing_states(bratu):
    huge = np.full(bratu.mesh_size, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert bratu.x_norm(huge) == np.inf
        bad = np.full(bratu.mesh_size, np.nan)
        assert bratu.x_norm(bad) == np.inf


def test_lipschitz_constant_formulas(bratu, chafee, rng):
    u = rng.standard_normal(bratu.mesh_size)
    mu, radius = 1.3, 0.7
    rho = 0.5
    expect = mu * rho ** 2 * np.exp(rho * (bratu.x_norm(u) + radius))
    assert np.isclose(bratu.lipschitz_constant(u, mu, radius), expect, rtol=1e-12)

    rho4 = chafee.embedding_constant(4)
    v = rng.standard_normal(chafee.mesh_size)
    expect = 6.0 * 9.0 * rho4 ** 2 * (chafee.x_norm(v) + radius)
    assert np.isclose(chafee.lipschitz_constant(v, 9.0, radius), expect, rtol=1e-12)

    with pytest.raises(ValueError):
        bratu.lipschitz_constant(u, mu, -1.0)


def test_lipschitz_grows_with_radius(bratu, chafee):
    u = np.zeros(bratu.mesh_size)
    for model in (bratu, chafee):
        k1 = model.lipschitz_constant(u, 2.0, 0.1)
        k2 = model.lipschitz_constant(u, 2.0, 1.0)
        assert k2 > k1 > 0.0


def test_default_guess_batteries(bratu, chafee):
    assert len(bratu.default_guesses) == 3
    assert np.all(bratu.default_guess == 0.0)
    assert len(chafee.default_guesses) == 2
    plus, minus = chafee.default_guesses
    assert np.allclose(plus, -minus)
    assert chafee.midpoint_value(plus) > 0.0


def test_uniqueness_sides():
    assert make_model("bratu", 11).uniqueness_side == "upper"
    assert make_model("chafee", 11).uniqueness_side == "lower"


def test_make_model_kinds():
    assert isinstance(make_model("bratu", 11), Bratu1D)
    assert isinstance(make_model(ModelKind.CHAFEE_INFANTE1D, 11), ChafeeInfante1D)
    with pytest.raises(ValueError):
        make_model("heat", 11)


def test_parameter_space_validation():
    with pytest.raises(ValueError):
        ParameterSpace(2.0, 1.0, (1.5,))
    with pytest.raises(ValueError):
        ParameterSpace(0.0, 1.0, ())
    with pytest.raises(ValueError):
        ParameterSpace(0.0, 1.0, (0.5, 0.5))
    with pytest.raises(ValueError):
        ParameterSpace(0.0, 1.0, (0.5, 1.5))
    with pytest.raises(ValueError):
        ParameterSpace.equispaced(0.0, 1.0, 1)
    # non-finite ends or width, or points, which no strict comparison of NaN
    # catches; equispaced refuses the ends before linspace can warn about them
    for lower, upper in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (-1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match="finite"):
            ParameterSpace.equispaced(lower, upper, 5)
    for points in ((1.0, np.nan), (np.nan,), (np.nan, 1.0), (0.5, np.inf)):
        with pytest.raises(ValueError):
            ParameterSpace(0.0, 2.0, points)


def test_parameter_space_with_points_merges_and_dedupes():
    space = ParameterSpace.equispaced(0.0, 10.0, 11)
    refined = space.with_points(np.array([2.5, 5.0, 5.0 + 1e-15, 7.25]))
    assert len(refined) == len(space) + 2
    pts = np.asarray(refined.train_points)
    assert np.all(np.diff(pts) > 0.0)
    assert 2.5 in refined.train_points and 7.25 in refined.train_points


@pytest.mark.parametrize("mesh", [1, 2, 3, 201])
@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_morse_index_counts_the_jacobians_nonpositive_eigenvalues(kind, mesh, rng):
    # one Sturm count on the bands, with the off-diagonal guard at mesh 1
    model = make_model(kind, mesh)
    zero = np.zeros(mesh)
    for u, mu in [(zero, 0.0), (zero, 3.0), (zero, 40.0), (zero, 400.0),
                  (0.5 * rng.standard_normal(mesh), 2.0)]:
        expect = np.count_nonzero(np.linalg.eigvalsh(model.jacobian(u, mu)) <= 0.0)
        assert model.morse_index(u, mu) == expect, (u, mu)
