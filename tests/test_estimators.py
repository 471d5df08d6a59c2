"""Inf-sup constants, residual bounds, and the auto-switching sweep logic."""
import contextlib
import math
from collections import Counter

import numpy as np
import pytest
from conftest import stiffness_matrix
from scipy.linalg import cholesky, eigh, solve_triangular, svdvals
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz

from bifrb import estimators, rom
from bifrb.estimators import (EstimatorKind, argmin_beta, beta_sweep, certificate_memo,
                              deflated_estimator_sweep,
                              discover_reduced_solutions, estimator_sweep,
                              inf_sup, linear_estimate, nonlinear_estimate,
                              residual_dual_norm)
from bifrb.model import make_model
from bifrb.nlsolve import discover_solutions, newton
from bifrb.rom import BasisMatrix

# Inf-sup at the lower-branch state next to the fold, 201-node mesh, frozen
# as a regression value.
BETA_NEAR_FOLD_MESH201 = 0.08863


def one_snapshot_basis(model, mu, guess=None):
    root = newton(model, mu, model.default_guess if guess is None else guess)
    assert root.converged
    basis = BasisMatrix(model)
    basis.enrich(root.u, mu)
    return basis, root.u


def dense_inf_sup(model, u, mu):
    """sigma_min(L^-1 J L^-T) with X = L L^T, all dense: the reference value."""
    chol = cholesky(stiffness_matrix(model.mesh_size), lower=True)
    half = solve_triangular(chol, model.jacobian(u, mu), lower=True)
    return float(svdvals(solve_triangular(chol, half.T, lower=True).T)[-1])


def test_inf_sup_matches_generalized_eigenvalue_oracle(rng):
    # beta^2 is the smallest eigenvalue of J^T X^-1 J z = lambda X z
    model = make_model("chafee", 41)
    X = stiffness_matrix(41)
    for u, mu in [(np.zeros(41), 8.0),
                  (newton(model, 12.0, model.default_guesses[0]).u, 12.0),
                  (0.4 * rng.standard_normal(41), 10.0)]:
        jac = model.jacobian(u, mu)
        pencil = jac.T @ np.linalg.solve(X, jac)
        lam = eigh(pencil, X, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert np.isclose(inf_sup(model, u, mu), np.sqrt(lam), rtol=1e-8)
    # Both models at mesh 201, including every root next to the chafee
    # pitchfork (mu = 9.87) and the bratu fold (mu = 3.51), against the SVD.
    chafee, bratu = make_model("chafee", 201), make_model("bratu", 201)
    cases = [(chafee, np.zeros(201), 8.0),
             (chafee, newton(chafee, 12.0, chafee.default_guess).u, 12.0),
             (chafee, 0.4 * rng.standard_normal(201), 10.0),
             (bratu, np.zeros(201), 1.0),
             (bratu, newton(bratu, 2.0, bratu.default_guess).u, 2.0),
             (bratu, 0.4 * rng.standard_normal(201), 3.0)]
    near = {chafee: 9.87, bratu: 3.51}
    for model, mu in near.items():
        roots = discover_solutions(model, mu, model.default_guesses + [np.zeros(201)])
        assert len(roots) == (3 if model is chafee else 2)
        cases += [(model, root, mu) for root in roots]
    for model, u, mu in cases:
        beta, expect = inf_sup(model, u, mu), dense_inf_sup(model, u, mu)
        tol = 1e-12 if expect < 1e-3 else 1e-10 * expect
        assert abs(beta - expect) <= tol, (model.kind, mu, beta, expect)


def test_inf_sup_rejects_non_finite_states_before_lapack(chafee, monkeypatch):
    def forbidden(*args):
        raise AssertionError("non-finite Jacobian passed to LAPACK")

    for name in ("dpttrs", "dsbmv", "dstev"):
        monkeypatch.setattr(estimators, name, forbidden)
    # X's side (`model.pencil_side`) and the counts of `model.sturm_count`
    for name in ("dpttrf", "dpttrs", "dstebz"):
        monkeypatch.setattr(f"bifrb.model.{name}", forbidden)
    for scope in (contextlib.nullcontext, certificate_memo):
        for bad in (np.nan, np.inf):
            u = np.zeros(chafee.mesh_size)
            u[7] = bad
            with scope(), pytest.raises(ValueError, match="infs or NaNs"):
                inf_sup(chafee, u, 9.0)


def test_certificate_memo_solves_an_equal_pencil_once(chafee, monkeypatch):
    """On chafee's trivial branch 1 - 3 u^2 rounds to 1.0, so a state of size
    1e-10 has the bands of J(0, mu): inside one scope the second call is the
    first one's float, without a solve.  Outside, every call solves."""
    solves = []
    solve = estimators._pencil_inf_sup

    def spied(a, b):
        solves.append(a[1, 0])
        return solve(a, b)

    monkeypatch.setattr(estimators, "_pencil_inf_sup", spied)
    zero, tiny = np.zeros(chafee.mesh_size), np.full(chafee.mesh_size, 1e-10)
    mu = 12.0
    assert np.array_equal(chafee.jacobian_bands(tiny, mu), chafee.jacobian_bands(zero, mu))
    with certificate_memo():
        beta = inf_sup(chafee, zero, mu)
        with certificate_memo():  # a nested scope shares the outer memo
            assert inf_sup(chafee, tiny, mu) == beta
        assert len(solves) == 1
        inf_sup(chafee, zero, 13.0)
        assert len(solves) == 2
    assert inf_sup(chafee, tiny, mu) == beta and len(solves) == 3
    with certificate_memo():  # a new scope starts empty
        inf_sup(chafee, tiny, mu)
    assert len(solves) == 4


def test_pencil_failure_is_a_linalg_error(chafee):
    # dpttrf reports info > 0 when the right-hand matrix is not positive definite
    jac = chafee.jacobian_bands(np.zeros(chafee.mesh_size), 9.0)
    with pytest.raises(np.linalg.LinAlgError):
        estimators._pencil_inf_sup(jac, -chafee.x_bands)


def dense_pencil(model, u, mu):
    """Every eigenvalue of J v = lam X v, dense: the reference spectrum."""
    return eigh(model.jacobian(u, mu), stiffness_matrix(model.mesh_size), eigvals_only=True)


def assert_matches_dense_pencil(model, u, mu):
    beta, expect = inf_sup(model, u, mu), float(np.min(np.abs(dense_pencil(model, u, mu))))
    tol = 1e-12 if expect < 1e-3 else 1e-10 * expect
    assert abs(beta - expect) <= tol, (model.kind, model.mesh_size, mu, beta, expect)
    return beta


def test_inf_sup_at_hard_states_matches_dense_pencil(chafee_fine, bratu_fine):
    zero = np.zeros(chafee_fine.mesh_size)
    # the eigenvector nearest 0 is sin(2 pi x): a start vector with mirror
    # symmetry would never see it
    assert abs(assert_matches_dense_pencil(chafee_fine, zero, 35.0) - 0.1135111195917) < 1e-12
    # on the mirror roots at mu = 35 the two eigenvalues nearest 0 lie 1.2e-7
    # apart, and Lanczos must resolve them
    for root in discover_solutions(chafee_fine, 35.0, chafee_fine.default_guesses):
        assert_matches_dense_pencil(chafee_fine, root, 35.0)
    # two negative eigenvalues below the one nearest 0
    assert np.sum(dense_pencil(chafee_fine, zero, 60.0) < 0) == 2
    assert_matches_dense_pencil(chafee_fine, zero, 60.0)
    # bratu's upper root at mu = 0.5, with one negative eigenvalue
    upper = max(discover_solutions(bratu_fine, 0.5, bratu_fine.default_guesses), key=np.max)
    assert 5.0 < np.max(upper) < 5.2
    assert np.sum(dense_pencil(bratu_fine, upper, 0.5) < 0) == 1
    assert_matches_dense_pencil(bratu_fine, upper, 0.5)


@pytest.mark.parametrize("mesh", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["bratu", "chafee"])
def test_inf_sup_on_tiny_meshes(kind, mesh, rng):
    model = make_model(kind, mesh)
    for u, mu in [(np.zeros(mesh), 0.0), (np.zeros(mesh), 3.0), (np.zeros(mesh), 40.0),
                  (0.5 * rng.standard_normal(mesh), 2.0)]:
        assert_matches_dense_pencil(model, u, mu)


def test_inf_sup_is_bitwise_deterministic(chafee_fine, rng):
    u = 0.4 * rng.standard_normal(chafee_fine.mesh_size)
    assert inf_sup(chafee_fine, u, 10.0) == inf_sup(chafee_fine, u, 10.0)


def spy_on_lapack(monkeypatch):
    """Calls of `inf_sup` to `dpttrs` (one X solve per Lanczos step; the
    start vector's X solve is made once per model, by `model.pencil_side`)
    and to `dstebz` (the inertia counts of `model.sturm_count`), by name."""
    calls = Counter()

    def spied(name, routine):
        def counted(*args):
            calls[name] += 1
            return routine(*args)
        return counted

    for target, routine in (("bifrb.estimators.dpttrs", dpttrs), ("bifrb.model.dstebz", dstebz)):
        monkeypatch.setattr(target, spied(target.rsplit(".", 1)[1], routine))
    return calls


def test_inf_sup_cost_is_mesh_independent(monkeypatch):
    calls = spy_on_lapack(monkeypatch)
    for mesh in (201, 801, 3201):
        model = make_model("chafee", mesh)
        # (state, mu, most Lanczos steps): the roots at 12 and 9.87 take 4-5
        # steps; the default guess at 12, whose two lowest eigenvalues lie
        # 2e-6 apart, 9 (32 and bisection with one Gram-Schmidt pass); the
        # zero state at 35, whose eigenvector nearest 0 is antisymmetric,
        # 10-11 (more from a symmetric start)
        cases = [(model.default_guess, 12.0, 12), (np.zeros(mesh), 35.0, 12)]
        for mu in (12.0, 9.87):
            cases += [(u, mu, 6) for u in [np.zeros(mesh)] + [
                newton(model, mu, g).u for g in model.default_guesses]]
        for u, mu, most in cases:
            calls.clear()
            assert inf_sup(model, u, mu) > 0.0
            assert calls["dpttrs"] <= most, (mesh, mu, calls)
            assert calls["dstebz"] == 4, (mesh, mu, calls)  # one certificate


def test_counts_reject_a_ritz_value_that_is_not_nearest_zero(monkeypatch):
    # B = I and a diagonal A: eigenvalue 1 on every unit vector but two, 3 on
    # one and 0.5 on the one the start vector 1 + cos(2.39996 i) weights least
    # (4e-6 of its norm).  Lanczos first meets Kato-Temple's test on t = 1;
    # the counts see 0.5 below it, and the next step finds 0.5.
    m = 100
    least = int(np.argmin(1.0 + np.cos(2.39996 * np.arange(m))))
    a, b = np.zeros((3, m)), np.zeros((3, m))
    a[1], b[1] = 1.0, 1.0
    a[1, least], a[1, (least + 1) % m] = 0.5, 3.0
    calls = spy_on_lapack(monkeypatch)
    assert abs(estimators._pencil_inf_sup(a, b) - 0.5) <= 1e-12
    assert calls["dstebz"] == 8  # two certificates: the first one fails


def test_inf_sup_bisects_inside_a_tight_cluster(monkeypatch):
    # u = 1 puts every eigenvalue above 1 and beta at the bottom of a cluster
    # of high modes: Lanczos stops after 32 steps and the counts bisect
    model = make_model("chafee", 201)
    calls = spy_on_lapack(monkeypatch)
    assert_matches_dense_pencil(model, np.ones(201), 12.0)
    assert calls["dpttrs"] == 32


def test_x_side_of_the_pencil_is_factored_once_per_model(monkeypatch, rng):
    # X's `dpttrf` and the start vector's solve run once, at a model's first
    # `inf_sup`, and the X side they leave is read-only
    factored = []
    monkeypatch.setattr("bifrb.model.dpttrf", lambda *args: factored.append(1) or dpttrf(*args))
    for kind in ("chafee", "bratu"):
        model = make_model(kind, 41)
        for mu in (1.0, 3.0, 9.0, 12.0):
            for _ in range(3):
                inf_sup(model, 0.3 * rng.standard_normal(41), mu)
        assert all(not x.flags.writeable for x in model.x_pencil)
    assert len(factored) == 2


def test_inf_sup_of_exactly_singular_jacobian(chafee):
    # at the zero state J = K - mu M; at the first discrete eigenvalue of
    # K v = lam M v (P1 elements, uniform mesh) J is singular to working precision
    h = 1.0 / (chafee.mesh_size + 1)
    lam1 = 12.0 / h**2 * np.sin(0.5 * np.pi * h) ** 2 / (2.0 + np.cos(np.pi * h))
    assert inf_sup(chafee, np.zeros(chafee.mesh_size), lam1) <= 1e-12


@pytest.mark.parametrize("mu", [5.0, 12.0])
def test_inf_sup_converges_under_mesh_refinement(mu):
    # on the chafee zero state beta(mu) -> min_k |1 - mu / (k pi)^2|, O(h^2)
    k = np.arange(1, 50)
    exact = np.min(np.abs(1.0 - mu / (k * np.pi) ** 2))
    errors = []
    for mesh in (201, 801, 3201):
        model = make_model("chafee", mesh)
        errors.append(abs(inf_sup(model, np.zeros(mesh), mu) - exact))
    # h shrinks about 4x per refinement, so the error about 16x
    assert 14.0 < errors[0] / errors[1] < 18.0
    assert 14.0 < errors[1] / errors[2] < 18.0
    assert errors[2] < 2e-7


def test_inf_sup_of_identityish_operator(bratu):
    # at mu = 0 the Jacobian is X itself, so the preconditioned operator is I
    assert np.isclose(inf_sup(bratu, np.zeros(bratu.mesh_size), 0.0), 1.0, rtol=1e-10)


def test_residual_dual_norm_matches_direct_solve(chafee, rng):
    u = 0.3 * rng.standard_normal(chafee.mesh_size)
    g = chafee.residual(u, 9.0)
    direct = float(np.sqrt(g @ np.linalg.solve(stiffness_matrix(chafee.mesh_size), g)))
    assert np.isclose(residual_dual_norm(chafee, u, 9.0), direct, rtol=1e-10)


def test_bounds_vanish_at_exact_roots(chafee):
    root = newton(chafee, 12.0, chafee.default_guesses[0]).u
    delta, beta, res = linear_estimate(chafee, root, 12.0)
    assert res < 1e-9
    assert beta > 1e-3
    assert delta < 1e-7
    est = nonlinear_estimate(chafee, root, 12.0)
    assert est.tau < 1e-6
    assert est.delta_brr < 1e-7


def test_nonlinear_bound_brackets_linear_bound(chafee):
    # 2/(1 + sqrt(1-tau)) lies in [1, 1+tau] whenever tau <= 1
    basis, root = one_snapshot_basis(chafee, 12.0, chafee.default_guesses[0])
    for mu in (10.0, 11.0, 12.0, 13.0):
        sw = estimator_sweep(basis, [mu], kind=EstimatorKind.NONLINEAR_BRR)
        e = sw.entries[0]
        if not e.converged or e.tau > 1.0:
            continue
        est = e.estimate
        assert est.delta_lin <= est.delta_brr <= (1.0 + est.tau) * est.delta_lin * (1 + 1e-12)


def test_stable_form_equals_textbook_form(chafee):
    basis, _ = one_snapshot_basis(chafee, 12.0, chafee.default_guesses[0])
    sw = estimator_sweep(basis, np.linspace(10.0, 13.0, 7),
                         kind=EstimatorKind.NONLINEAR_BRR)
    checked = 0
    for e in sw:
        if not e.converged or not (1e-12 < e.tau <= 1.0):
            continue
        est = e.estimate
        textbook = (est.beta / est.lipschitz) * (1.0 - math.sqrt(1.0 - est.tau))
        assert np.isclose(est.delta_brr, textbook, rtol=1e-9)
        checked += 1
    assert checked >= 3


def test_large_residual_invalidates_nonlinear_bound(bratu):
    # the zero state is far from any root at mu = 2, so tau exceeds 1
    est = nonlinear_estimate(bratu, np.zeros(bratu.mesh_size), 2.0)
    assert est.tau > 1.0
    assert math.isinf(est.delta_brr)
    assert math.isfinite(est.delta_lin)
    assert math.isfinite(est.tau)


def test_delta_for_selects_by_kind(bratu):
    est = nonlinear_estimate(bratu, np.zeros(bratu.mesh_size), 2.0)
    assert est.delta_for(EstimatorKind.LINEAR) == est.delta_lin
    assert est.delta_for(EstimatorKind.NONLINEAR_BRR) == est.delta_brr


def test_auto_switch_falls_back_when_any_tau_exceeds_one(bratu):
    # a single snapshot at the fold leaves large residuals at small mu
    basis, _ = one_snapshot_basis(bratu, 3.5)
    sw = estimator_sweep(basis, np.linspace(0.5, 3.5, 51))
    assert sw.requested_kind == EstimatorKind.AUTO_SWITCH
    assert sw.kind_used == EstimatorKind.LINEAR
    taus = [e.tau for e in sw if e.converged]
    assert any(t > 1.0 for t in taus)
    # the fallback applies the linear bound to every entry, never a mix
    for e in sw:
        if e.converged:
            assert e.delta == e.estimate.delta_lin
            assert e.valid


def test_auto_switch_keeps_nonlinear_bound_when_all_tau_small(bratu):
    basis, _ = one_snapshot_basis(bratu, 2.0)
    sw = estimator_sweep(basis, np.linspace(0.5, 2.0, 51))
    assert sw.kind_used == EstimatorKind.NONLINEAR_BRR
    assert all(e.valid for e in sw)
    assert all(e.tau <= 1.0 for e in sw)
    for e in sw:
        assert e.delta == e.estimate.delta_brr


def test_sweep_reports_divergence_with_infinite_bound(bratu):
    basis, _ = one_snapshot_basis(bratu, 2.0)
    sw = estimator_sweep(basis, [2.0, 5.0])
    ok, bad = sw.entries
    assert ok.converged and ok.delta < 1e-8
    assert not bad.converged
    assert math.isinf(bad.delta) and not bad.valid
    assert not all(e.valid for e in sw)
    assert math.isinf(sw.max_delta)


def test_rows_schema(chafee):
    basis, _ = one_snapshot_basis(chafee, 12.0, chafee.default_guesses[0])
    sw = estimator_sweep(basis, [11.0, 12.0])
    rows = sw.rows()
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"mu", "branch", "delta", "beta", "tau", "valid"}
        assert row["valid"] in (0, 1)


def test_discover_reduced_solutions_counts(chafee):
    basis, root = one_snapshot_basis(chafee, 12.0, chafee.default_guesses[0])
    battery = [basis.project(g) for g in chafee.default_guesses]
    roots = discover_reduced_solutions(basis, 12.0, battery)
    # the span of one pitchfork branch carries both mirrored roots and zero
    assert len(roots) == 3
    lifted_values = sorted(chafee.midpoint_value(basis.lift(r)) for r in roots)
    assert lifted_values[0] < -0.1
    assert abs(lifted_values[1]) < 1e-6
    assert lifted_values[2] > 0.1


def test_deflated_sweep_emits_one_entry_per_root(chafee):
    # on a one- and a two-column basis alike, each parameter gives 3 roots
    basis, _ = one_snapshot_basis(chafee, 12.0, chafee.default_guesses[0])
    wider = basis.truncated(1)
    wider.enrich(newton(chafee, 14.0, chafee.default_guesses[0]).u, 14.0)
    assert (basis.n, wider.n) == (1, 2)
    for b in (basis, wider):
        sw = deflated_estimator_sweep(b, [11.0, 12.0])
        by_mu = {}
        for e in sw:
            by_mu.setdefault(e.mu, []).append(e)
        assert set(by_mu) == {11.0, 12.0}
        for mu, entries in by_mu.items():
            assert len(entries) == 3
            assert [e.branch for e in entries] == [0, 1, 2]
            assert all(e.converged for e in entries)


def test_deflated_sweep_runs_no_plain_solve_where_no_root_is_found(bratu, monkeypatch):
    # beyond the fold (mu = 3.51) the sweep reports an invalid entry from the
    # deflated discovery alone, without an extra plain reduced solve
    basis, _ = one_snapshot_basis(bratu, 2.0)
    plain_solves = []
    reduced_newton = rom.reduced_newton

    def spy(basis, mu, guess, cfg=None):
        plain_solves.append(mu)
        return reduced_newton(basis, mu, guess, cfg)

    for module in (rom, estimators):
        if hasattr(module, "reduced_newton"):
            monkeypatch.setattr(module, "reduced_newton", spy)
    sw = deflated_estimator_sweep(basis, [2.0, 5.0])
    below = [e for e in sw if e.mu == 2.0]
    beyond = [e for e in sw if e.mu == 5.0]
    assert len(below) == 2 and all(e.valid for e in below)
    assert len(beyond) == 1 and not beyond[0].valid
    assert math.isinf(beyond[0].delta)
    assert plain_solves == []


def test_continued_sweeps_refuse_an_empty_basis(chafee):
    with pytest.raises(ValueError, match="nonempty basis"):
        deflated_estimator_sweep(BasisMatrix(chafee), [10.0, 12.0])
    with pytest.raises(ValueError, match="nonempty basis"):
        beta_sweep(BasisMatrix(chafee), [10.0, 12.0])


def test_beta_sweep_dips_at_the_pitchfork(chafee):
    basis, _ = one_snapshot_basis(chafee, 12.0, chafee.default_guesses[0])
    grid = np.linspace(8.0, 12.0, 21)
    profile = beta_sweep(basis, grid)
    assert all(p.converged for p in profile)
    best = argmin_beta(profile)
    assert abs(best.mu - np.pi**2) <= (grid[1] - grid[0])
    # V shape: endpoints are well above the dip
    assert profile[0].beta > 10 * best.beta
    assert profile[-1].beta > 10 * best.beta


def test_argmin_beta_rejects_empty_profile():
    with pytest.raises(ValueError):
        argmin_beta([])


def test_beta_near_fold_regression(bratu_fine):
    root = newton(bratu_fine, 3.5, bratu_fine.default_guess)
    assert root.converged
    beta = inf_sup(bratu_fine, root.u, 3.5)
    assert abs(beta - BETA_NEAR_FOLD_MESH201) < 2e-3
