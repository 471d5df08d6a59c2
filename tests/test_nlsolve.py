"""Newton iteration, the root set's deflation, and multi-root discovery."""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import stiffness_matrix
from scipy.linalg import eigh

from bifrb import analysis, nlsolve
from bifrb.analysis import solution_ensemble
from bifrb.model import Bratu1D, ChafeeInfante1D, make_model
from bifrb.nlsolve import (NO_PROGRESS_WINDOW, DeflationSingularity, NewtonConfig,
                           RootSet, SolveResult, continuation, deflated_newton, discover,
                           discover_solutions, newton)
from bifrb.rom import BasisMatrix, reduced_deflated_newton

DIVERGENCE_CAUSES = {
    "nonfinite_residual",
    "nonfinite_step",
    "singular_jacobian",
    "divergence_norm",
    "no_progress",
    "max_iter",
}


def test_newton_converges_to_trivial_root(chafee):
    res = newton(chafee, 12.0, np.zeros(chafee.mesh_size))
    assert res.converged and res.iterations == 0
    assert res.residual_norm == 0.0
    assert res.cause is None


def test_subcritical_sine_guess_falls_to_zero(chafee):
    # below the pitchfork only the zero solution exists
    res = newton(chafee, 7.0, chafee.default_guesses[0])
    assert res.converged
    assert chafee.x_norm(res.u) < 1e-8


def test_supercritical_branches_are_symmetric(chafee):
    plus = newton(chafee, 12.0, chafee.default_guesses[0])
    minus = newton(chafee, 12.0, chafee.default_guesses[1])
    assert plus.converged and minus.converged
    assert chafee.midpoint_value(plus.u) > 0.1
    assert chafee.midpoint_value(minus.u) < -0.1
    assert chafee.x_norm(plus.u + minus.u) < 1e-8


def test_converged_iterates_satisfy_residual_tolerance(bratu):
    cfg = NewtonConfig(tol=1e-12)
    res = newton(bratu, 1.0, bratu.default_guess, cfg)
    assert res.converged
    assert bratu.x_norm(bratu.residual(res.u, 1.0)) < 1e-12


def test_beyond_fold_every_guess_diverges(bratu):
    for guess in bratu.default_guesses:
        res = newton(bratu, 3.6, guess)
        assert not res.converged
        assert res.cause in DIVERGENCE_CAUSES
        assert res.u.shape == (bratu.mesh_size,)


class _BrokenJacobianBratu(Bratu1D):
    """Bratu whose Jacobian gets one column overwritten by a fixed value."""

    def __init__(self, mesh_size, value):
        super().__init__(mesh_size)
        self.value = value

    def _bands_from(self, v, mu):
        bands = super()._bands_from(v, mu)
        bands[1, 0] = bands[2, 0] = self.value
        return bands


@pytest.mark.parametrize("value, cause", [(0.0, "singular_jacobian"),
                                          (np.nan, "nonfinite_step")])
def test_broken_jacobian_is_reported_not_raised(value, cause):
    # A zero first column is a zero pivot for any LU.
    model = _BrokenJacobianBratu(21, value)
    guess = model.default_guesses[1]
    if cause == "singular_jacobian":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(model.jacobian(guess, 1.0), -model.residual(guess, 1.0))
    runs = [newton(model, 1.0, guess),
            deflated_newton(model, 1.0, guess, [np.zeros(model.mesh_size)])]
    for res in runs:
        assert not res.converged
        assert res.cause == cause
        assert res.iterations == 0
        assert np.array_equal(res.u, guess)


@pytest.mark.parametrize("value, cause", [(0.0, "singular_jacobian"),
                                          (np.nan, "nonfinite_step")])
def test_broken_jacobian_at_mesh_1_is_reported_not_raised(value, cause):
    # The 1x1 Jacobian is its own pivot: a zero entry is a singular Jacobian.
    model = _BrokenJacobianBratu(1, value)
    guess = model.default_guesses[1]
    runs = [newton(model, 1.0, guess),
            deflated_newton(model, 1.0, guess, [np.zeros(model.mesh_size)])]
    for res in runs:
        assert not res.converged
        assert res.cause == cause
        assert res.iterations == 0
        assert np.array_equal(res.u, guess)


def test_euclidean_deflation_distances_are_numpys_norm(rng):
    roots = [rng.standard_normal(4) for _ in range(3)]
    y = rng.standard_normal(4)
    op = RootSet(None, roots)
    assert [op.norm(y - u) for u in roots] == [float(np.linalg.norm(y - u)) for u in roots]


def test_deflation_scalar_matches_manual_product(rng):
    u1 = rng.standard_normal(5)
    u2 = rng.standard_normal(5)
    y = rng.standard_normal(5)
    op = RootSet(None, [u1, u2])
    d1 = np.linalg.norm(y - u1)
    d2 = np.linalg.norm(y - u2)
    manual = (d1**-2.0 + 1.0) * (d2**-2.0 + 1.0)
    assert np.isclose(op.factor_and_gradient(y)[0], manual, rtol=1e-13)


def test_deflation_scalar_with_energy_metric(bratu, rng):
    u1 = rng.standard_normal(bratu.mesh_size)
    y = rng.standard_normal(bratu.mesh_size)
    op = RootSet(bratu.x_apply, [u1])
    X = stiffness_matrix(bratu.mesh_size)
    d = np.sqrt((y - u1) @ X @ (y - u1))
    assert np.isclose(op.factor_and_gradient(y)[0], d**-2.0 + 1.0, rtol=1e-12)


def test_deflation_gradient_matches_finite_differences(rng):
    roots = [rng.standard_normal(8) for _ in range(3)]
    op = RootSet(None, roots)
    y = rng.standard_normal(8) + 4.0  # keep away from the roots
    grad = op.factor_and_gradient(y)[1]
    eps = 1e-6
    for i in range(8):
        e = np.zeros(8)
        e[i] = eps
        fd = (op.factor_and_gradient(y + e)[0]
              - op.factor_and_gradient(y - e)[0]) / (2 * eps)
        assert abs(fd - grad[i]) < 1e-6 * max(1.0, abs(grad[i]))


def test_deflation_gradient_with_metric_matches_finite_differences(bratu, rng):
    roots = [rng.standard_normal(bratu.mesh_size)]
    op = RootSet(bratu.x_apply, roots)
    y = rng.standard_normal(bratu.mesh_size)
    grad = op.factor_and_gradient(y)[1]
    eps = 1e-7
    for i in rng.choice(bratu.mesh_size, size=10, replace=False):
        e = np.zeros(bratu.mesh_size)
        e[i] = eps
        fd = (op.factor_and_gradient(y + e)[0]
              - op.factor_and_gradient(y - e)[0]) / (2 * eps)
        assert abs(fd - grad[i]) < 1e-5 * max(1.0, abs(grad[i]))


def test_deflation_singularity(rng):
    u1 = rng.standard_normal(4)
    op = RootSet(None, [u1])
    with pytest.raises(DeflationSingularity):
        op.factor_and_gradient(u1.copy())
    assert op.factor_and_gradient(np.zeros(4) + 10.0)[1].shape == (4,)


def test_root_set_norm_is_the_models_x_norm(chafee, rng):
    roots = RootSet(chafee.x_apply)
    m = chafee.mesh_size
    with np.errstate(over="ignore", invalid="ignore"):
        for v in (rng.standard_normal(m), np.full(m, np.nan), np.full(m, 1e200),
                  np.zeros(m)):
            assert roots.norm(v) == chafee.x_norm(v)


def test_factor_and_gradient_in_one_pass(bratu, rng):
    roots = [rng.standard_normal(bratu.mesh_size) for _ in range(3)]
    y = rng.standard_normal(bratu.mesh_size)
    for metric in (None, bratu.x_apply):
        op = RootSet(metric, roots)
        m, _ = op.factor_and_gradient(y)
        manual = 1.0
        for d in (op.norm(y - u) for u in roots):
            manual *= d**-2.0 + 1.0
        assert np.isclose(m, manual, rtol=1e-14)


def two_pass_factor_and_gradient(roots, y):
    """`RootSet.factor_and_gradient` as its two-pass form computed it, verbatim."""
    y = np.asarray(y, dtype=float)
    terms = [roots._measured(y - u) for u in roots.roots]
    if any(dist < 1e-100 for _, dist in terms):
        raise DeflationSingularity("deflation singularity: state coincides with a stored root")
    factors = [dist ** (-nlsolve.DEFLATION_POWER) + nlsolve.DEFLATION_SHIFT for _, dist in terms]
    m = 1.0
    for f in factors:
        m *= f
    g = np.zeros_like(y)
    for (md, dist), f in zip(terms, factors):
        g += (m / f) * (-nlsolve.DEFLATION_POWER) * dist ** (-nlsolve.DEFLATION_POWER - 2.0) * md
    return m, g


def test_factor_and_gradient_is_the_two_pass_formula_bit_for_bit(bratu, rng):
    size = bratu.mesh_size
    for metric in (None, bratu.x_apply):
        for count in (1, 2, 3):
            op = RootSet(metric, [rng.standard_normal(size) for _ in range(count)])
            y = rng.standard_normal(size)
            y[:5] = op.roots[0][:5]  # exact zeros in y - u_0: signed zeros must agree
            m, g = op.factor_and_gradient(y)
            m_ref, g_ref = two_pass_factor_and_gradient(op, y)
            assert m == m_ref and g.tobytes() == g_ref.tobytes(), (metric, count)
            on_root = op.roots[count - 1].copy()
            for solve in (op.factor_and_gradient, lambda v: two_pass_factor_and_gradient(op, v)):
                with pytest.raises(DeflationSingularity):
                    solve(on_root)


def test_deflated_iteration_evaluates_deflation_once(chafee, monkeypatch):
    # one factor-and-gradient pass per Newton step
    mu = 12.0
    root = newton(chafee, mu, chafee.default_guesses[0]).u
    calls = {"pair": 0}
    pair = RootSet.factor_and_gradient

    def counted(self, y):
        calls["pair"] += 1
        return pair(self, y)

    monkeypatch.setattr(RootSet, "factor_and_gradient", counted)
    res = deflated_newton(chafee, mu, chafee.default_guesses[1], [root])
    assert res.converged
    assert calls["pair"] == res.iterations


def test_empty_deflation_reproduces_plain_newton_bitwise(chafee):
    guess = 0.8 * chafee.default_guesses[0]
    plain = newton(chafee, 11.0, guess)
    defl = deflated_newton(chafee, 11.0, guess, [])
    assert plain.converged and defl.converged
    assert plain.iterations == defl.iterations
    assert np.array_equal(plain.u, defl.u)
    assert plain.residual_norm == defl.residual_norm


def test_sherman_morrison_step_equals_dense_rank_one_solve(chafee, rng):
    # the scaled plain step must equal the solve with the explicitly
    # assembled deflated Jacobian m*J + G grad(m)^T
    mu = 12.0
    root = newton(chafee, mu, chafee.default_guesses[0]).u
    op = RootSet(chafee.x_apply, [root])
    for _ in range(10):
        y = rng.standard_normal(chafee.mesh_size) * 0.3
        G = chafee.residual(y, mu)
        J = chafee.jacobian(y, mu)
        m, g = op.factor_and_gradient(y)
        dense = np.linalg.solve(m * J + np.outer(G, g), -m * G)
        du = np.linalg.solve(J, -G)
        sm = du / (1.0 - float(g @ du) / m)
        assert np.linalg.norm(sm - dense) <= 1e-8 * max(1.0, np.linalg.norm(dense))


def test_deflated_newton_finds_a_second_root(chafee):
    mu = 12.0
    first = newton(chafee, mu, chafee.default_guesses[0])
    assert first.converged
    second = deflated_newton(chafee, mu, chafee.default_guesses[0], [first.u])
    assert second.converged
    assert chafee.x_norm(second.u - first.u) > 1e-3


def test_deflated_newton_rejects_guess_on_root(chafee):
    mu = 12.0
    root = newton(chafee, mu, chafee.default_guesses[0]).u
    res = deflated_newton(chafee, mu, root.copy(), [root])
    assert not res.converged
    assert res.cause == "deflation_singular_guess"


def test_deflated_guess_that_is_a_known_root_is_refused_at_once(chafee, rng):
    # A guess the root set's distinctness rule calls a known root starts no
    # iteration, full-order or reduced, even when it is not bit-equal to it.
    mu = 12.0
    root = newton(chafee, mu, chafee.default_guesses[0]).u
    basis = BasisMatrix(chafee)
    basis.enrich(root, mu)
    for solve, known in ((lambda g, roots: deflated_newton(chafee, mu, g, roots), root),
                         (lambda g, roots: reduced_deflated_newton(basis, mu, g, roots),
                          basis.project(root))):
        near = known * (1.0 + 1e-8 * rng.standard_normal(known.shape))
        res = solve(near, [known])
        assert not res.converged
        assert res.cause == "deflation_singular_guess"
        assert res.iterations == 0
        assert np.array_equal(res.u, near)


def test_root_set_distinctness_guard(bratu, rng):
    roots = RootSet(bratu.x_apply)
    u = rng.standard_normal(bratu.mesh_size)
    assert roots.add(u)
    assert not roots.add(u + 1e-9 * rng.standard_normal(bratu.mesh_size))
    assert roots.add(u + 1.0)
    assert len(roots) == 2
    assert all(v.shape == (bratu.mesh_size,) for v in roots)


def test_root_set_scales_threshold_with_norm(bratu):
    roots = RootSet(bratu.x_apply)
    big = np.full(bratu.mesh_size, 50.0)
    roots.add(big)
    # absolute perturbation below threshold * ||big||_X counts as the same root
    assert not roots.add(big * (1.0 + 1e-8))


def test_root_set_applies_the_same_rule_to_coefficient_vectors():
    roots = RootSet()
    big = np.array([60.0, 80.0])  # norm 100: the threshold scales to 1e-4
    assert roots.add(big)
    assert not roots.add(big + [0.0, 9e-5])
    assert roots.add(big + [0.0, 2e-4])
    small = np.array([1e-3, 0.0])  # below norm 1 the threshold is absolute
    assert roots.add(small)
    assert not roots.add(small + [0.0, 9e-7])
    assert roots.add(small + [0.0, 2e-6])
    assert len(roots) == 4


@pytest.mark.parametrize("kind, mu, expected", [
    ("chafee", 12.0, 3),
    ("chafee", 7.0, 1),
    ("bratu", 1.0, 2),
    ("bratu", 3.6, 0),
])
def test_discovered_root_counts(kind, mu, expected, bratu, chafee):
    model = {"bratu": bratu, "chafee": chafee}[kind]
    guesses = [np.zeros(model.mesh_size)] + model.default_guesses
    found = discover_solutions(model, mu, guesses)
    assert len(found) == expected
    for u in found:
        assert model.x_norm(model.residual(u, mu)) < 1e-9


def test_discovery_orders_bratu_branches_by_amplitude(bratu):
    found = discover_solutions(bratu, 1.0, bratu.default_guesses)
    assert len(found) == 2
    lower, upper = found.roots
    assert bratu.midpoint_value(lower) < bratu.midpoint_value(upper)


def test_discover_requires_a_guess(bratu):
    with pytest.raises(ValueError):
        discover_solutions(bratu, 1.0, [])


def test_fully_deflated_attempts_stop_for_lack_of_progress(chafee):
    # with all three roots deflated nothing is left to find: the attempts
    # wander until the step norm stops halving, far short of max_iter
    mu = 12.0
    roots = discover_solutions(chafee, mu, [np.zeros(chafee.mesh_size)] + chafee.default_guesses)
    assert len(roots) == 3
    for guess in chafee.default_guesses:
        res = deflated_newton(chafee, mu, guess, roots)
        assert res.cause == "no_progress"
        assert NO_PROGRESS_WINDOW <= res.iterations <= 2 * NO_PROGRESS_WINDOW


@pytest.mark.parametrize("mesh", [201, 401, 801, 1601, 3201])
def test_newton_and_discovery_are_mesh_independent(mesh):
    # the dual norm of the residual has no mesh-dependent roundoff floor
    chafee, bratu = make_model("chafee", mesh), make_model("bratu", mesh)
    for model, mu in ((chafee, 12.0), (bratu, 1.0)):
        res = newton(model, mu, model.default_guess)
        assert res.converged
        assert res.residual_norm == model.x_dual_norm(model.residual(res.u, mu))
        assert res.residual_norm < NewtonConfig().tol
    assert len(discover_solutions(bratu, 1.0, bratu.default_guesses)) == 2


def test_full_order_iterate_evaluates_gauss_values_once(monkeypatch):
    # the residual of an iterate and the Jacobian of its step share one
    # evaluation: k iterations visit k + 1 iterates.  A model of its own,
    # since patching a shared one leaves its attribute.
    chafee = make_model("chafee", 101)
    mu = 12.0
    root = newton(chafee, mu, chafee.default_guesses[0]).u
    calls = {"n": 0}
    gauss_values = chafee._gauss_values

    def counted(u):
        calls["n"] += 1
        return gauss_values(u)

    monkeypatch.setattr(chafee, "_gauss_values", counted)
    for solve in (lambda g: newton(chafee, mu, g),
                  lambda g: deflated_newton(chafee, mu, g, [root])):
        calls["n"] = 0
        res = solve(chafee.default_guesses[1])
        assert res.converged and res.iterations > 0
        assert calls["n"] == res.iterations + 1


def test_solvers_leave_no_state_on_the_model(monkeypatch):
    # neither while they run nor after: the engine, not the model, shares an
    # iterate's Gauss values between its residual and its Newton step.  A
    # model of its own, since patching a shared one leaves its attribute.
    chafee = make_model("chafee", 101)

    def unchanged(before):
        after = vars(chafee)
        return after.keys() == before.keys() and all(
            np.array_equal(after[k], v) if isinstance(v, np.ndarray) else after[k] == v
            for k, v in before.items())

    before = {k: np.copy(v) if isinstance(v, np.ndarray) else v for k, v in vars(chafee).items()}
    seen, gauss_values = [], ChafeeInfante1D._gauss_values

    def watched(self, u):
        seen.append(unchanged(before))
        return gauss_values(self, u)

    monkeypatch.setattr(ChafeeInfante1D, "_gauss_values", watched)
    root = newton(chafee, 12.0, chafee.default_guess)
    assert deflated_newton(chafee, 12.0, -chafee.default_guess, [root.u]).converged
    assert len(discover_solutions(chafee, 12.0, chafee.default_guesses)) == 3
    assert len(seen) > 10 and all(seen)
    assert unchanged(before)


def test_discover_drives_a_guess_until_it_fails_or_gives_one_attempt_per_guess():
    # a fake deflated solve: guess g reaches the first of REACH[g] not yet
    # known; "k" ignores deflation and keeps returning the known root 1
    reach = {"p": [1.0, 2.0], "q": [1.0, 2.0, 3.0], "k": [1.0]}
    attempts = []

    def deflated_solve(guess, found):
        attempts.append(guess)
        known = [u[0] for u in found]
        new = [r for r in reach[guess] if guess == "k" or r not in known]
        return SolveResult(np.array([new[0] if new else np.nan]), bool(new), 1, 0.0)

    def run(guesses, drive):
        attempts.clear()
        found = discover(deflated_solve, guesses, RootSet(), drive)
        return [u[0] for u in found], list(attempts)

    # driven: each guess until an attempt fails or returns a known root
    assert run(["p", "q"], True) == ([1.0, 2.0, 3.0], ["p", "p", "p", "q", "q"])
    assert run(["k", "p"], True) == ([1.0, 2.0], ["k", "k", "p", "p"])
    # not driven: exactly one attempt per guess, whatever it returns
    assert run(["p", "q"], False) == ([1.0, 2.0], ["p", "q"])
    assert run(["k", "k", "p"], False) == ([1.0, 2.0], ["k", "k", "p"])


class StringRoots(list):
    """The known roots of the string sweep, with `RootSet.add`'s contract."""

    def add(self, u):
        if u in self:
            return False
        self.append(u)
        return True


# A sweep on strings: the roots existing at each mu with their Morse index.
# A carried root reaches itself, battery guess gi the root
# BATTERY_REACHES[gi], each only where it exists and is not yet known.
BATTERY = ["g0", "g1", "g2"]
BATTERY_REACHES = {"g0": "z", "g1": "p", "g2": "m"}
EXISTS = {
    1.0: {"z": 0},                  # (a) first parameter: the battery finds z
    2.0: {"z": 0},                  # (d) after a battery root: nothing new
    3.0: {"z": 0},                  # quiet
    4.0: {"z": 1, "p": 0},          # (c) z changes stability: p is born
    5.0: {"z": 1, "p": 0, "m": 0},  # (d) m, p's partner, with the same counts
    6.0: {"z": 1, "p": 0, "m": 0},  # (d) after m: nothing new
    7.0: {"z": 1, "p": 0, "m": 0},  # quiet
    8.0: {},                        # (b) no root
    9.0: {"z": 0},                  # (b) nothing carried: the battery alone
}


def string_sweep(counted=True):
    """(swept roots, solve_at calls as (mu, guesses, roots passed in, drive),
    deflated attempts as (mu, guess))."""
    calls, attempts = [], []

    def solve_at(mu, guesses, roots, drive):
        calls.append((mu, list(guesses), list(roots), drive))

        def deflated_solve(g, known):
            attempts.append((mu, g))
            root = BATTERY_REACHES.get(g, g)
            return SimpleNamespace(converged=root in EXISTS[mu] and root not in known, u=root)

        return discover(deflated_solve, guesses, StringRoots(roots), drive)

    count = (lambda u, mu: EXISTS[mu][u]) if counted else None
    swept = dict(continuation(solve_at, list(EXISTS), BATTERY, count))
    return swept, calls, attempts


def test_continuation_tries_previous_roots_then_the_battery():
    swept, calls, attempts = string_sweep()
    assert swept == {1.0: ["z"], 2.0: ["z"], 3.0: ["z"], 4.0: ["z", "p"],
                     5.0: ["z", "p", "m"], 6.0: ["z", "p", "m"], 7.0: ["z", "p", "m"],
                     8.0: [], 9.0: ["z"]}
    # every call has a guess; the carried pass starts from no roots and gives
    # each guess one attempt, the battery pass continues from its roots and
    # drives each guess; with nothing carried the battery runs alone
    assert all(guesses for _, guesses, _, _ in calls)
    assert [c for c in calls if c[0] == 4.0] == [(4.0, ["z"], [], False),
                                                (4.0, BATTERY, ["z"], True)]
    assert [c for c in calls if c[0] == 9.0] == [(9.0, BATTERY, [], True)]
    assert BATTERY == ["g0", "g1", "g2"]
    # one attempt per carried guess, found or not; a battery guess that adds
    # a root is tried once more and then fails on it
    for mu, guesses, known, drive in calls:
        for g in guesses:
            adds = drive and BATTERY_REACHES[g] in set(swept[mu]) - set(known)
            assert attempts.count((mu, g)) == (2 if adds else 1), (mu, g)
    assert attempts.count((3.0, "z")) == 1 and attempts.count((7.0, "z")) == 1
    assert [g for mu, g in attempts if mu == 5.0] == ["z", "p", "g0", "g1", "g2", "g2"]
    # solve_at may consume its guesses: the caller's battery stays as it was
    battery = list(BATTERY)

    def consume(mu, guesses, roots, drive):
        guesses.clear()
        return []

    assert list(continuation(consume, [1.0, 2.0], battery)) == [(1.0, []), (2.0, [])]
    assert battery == BATTERY

    def consume_and_find(mu, guesses, roots, drive):
        guesses.clear()
        return ["z"]

    # nor do the roots already yielded change when the next mu consumes them
    assert list(continuation(consume_and_find, [1.0, 2.0], battery)) == [(1.0, ["z"]), (2.0, ["z"])]
    # the guesses at mu are previous roots, then (if it runs) the battery:
    # the order of a battery run at every parameter
    tried = {}
    for mu, guesses, _, _ in calls:
        tried.setdefault(mu, []).extend(guesses)
    previous = [[]] + list(swept.values())[:-1]
    for mu, before in zip(swept, previous):
        assert tried[mu] in (before, before + BATTERY), mu


def test_continuation_runs_the_battery_only_where_a_branch_can_be_born():
    def fired(calls):
        return sorted(mu for mu, guesses, _, _ in calls if guesses == BATTERY)

    assert fired(string_sweep()[1]) == [1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0]
    # without counts only (a), (b) and (d) fire, so p and m stay unseen
    swept, calls, _ = string_sweep(counted=False)
    assert fired(calls) == [1.0, 2.0, 8.0, 9.0]
    assert swept[7.0] == ["z"]


def discrete_pitchfork(model):
    """mu_h where the zero state's Jacobian X - mu M turns singular."""
    zero = np.zeros(model.mesh_size)
    x = model.jacobian(zero, 0.0)
    return float(eigh(x, x - model.jacobian(zero, 1.0), eigvals_only=True)[0])


GATED_CASES = ["chafee_crosses_pi2", "chafee_just_past_mu_h", "bratu_descends", "chafee_mesh_1"]


def gated_case(case, chafee, bratu):
    """(model, grid, the root count at each point, None where not pinned)."""
    if case == "chafee_crosses_pi2":
        return chafee, [8.0, 9.5, 10.0, 11.0, 12.5], [1, 1, 3, 3, 3]
    if case == "chafee_just_past_mu_h":
        # the ± pair has barely left zero at the first point past the discrete
        # pitchfork: the battery finds one of the two there, and clause (d)
        # runs it again at the next point, where the counts do not change,
        # for the other
        mu_h = discrete_pitchfork(chafee)
        return chafee, [9.0, mu_h + 1e-12, mu_h + 0.25, 11.0, 13.0], [1, None, 3, 3, 3]
    if case == "bratu_descends":
        return bratu, [3.6, 3.5, 3.0, 2.0, 1.0, 0.5], [0, 2, 2, 2, 2, 2]
    # one interior node, pitchfork at mu = 12: the counts' off-diagonal guard
    return make_model("chafee", 1), [9.0, 11.0, 13.0, 15.0], [1, 1, 3, 3]


@pytest.mark.parametrize("case", GATED_CASES)
def test_gated_ensemble_is_the_ensemble_of_a_battery_at_every_parameter(case, chafee, bratu,
                                                                      monkeypatch):
    model, grid, expected = gated_case(case, chafee, bratu)
    model = make_model(model.kind, model.mesh_size)  # patched below, so not a shared one
    gated = solution_ensemble(model, grid)
    # a fresh count on every call makes every count list differ: the battery
    # runs at every parameter
    fresh = itertools.count()
    monkeypatch.setattr(model, "morse_index", lambda u, mu: next(fresh))
    always = solution_ensemble(model, grid)
    assert all(n is None or len(always.at(mu)) == n for n, mu in zip(expected, grid))
    assert len(gated) == len(always)
    for p, q in zip(gated.points, always.points):
        assert (p.mu, p.branch, p.value) == (q.mu, q.branch, q.value)
        assert np.array_equal(p.u, q.u)


@pytest.mark.parametrize("case", GATED_CASES)
def test_one_solve_per_carried_guess_keeps_the_ensemble_of_driven_carried_guesses(
        case, chafee, bratu, monkeypatch):
    # the reference drives every carried guess until it fails, as the battery
    # pass does; one solve per carried guess may reach a root from another
    # start, so the states agree at solver tolerance, not bit for bit
    model, grid, _ = gated_case(case, chafee, bratu)
    attempts = {"n": 0}
    solve = nlsolve.deflated_newton

    def counted(*args):
        attempts["n"] += 1
        return solve(*args)

    def driven(model, mu, guesses, cfg, roots, drive):
        return discover_solutions(model, mu, guesses, cfg, roots, True)

    monkeypatch.setattr(nlsolve, "deflated_newton", counted)
    once = solution_ensemble(model, grid)
    attempts_once, attempts["n"] = attempts["n"], 0
    monkeypatch.setattr(analysis, "discover_solutions", driven)
    reference = solution_ensemble(model, grid)
    assert attempts_once < attempts["n"]
    assert [(p.mu, p.branch) for p in once.points] == [(q.mu, q.branch) for q in reference.points]
    for mu in grid:
        here, there = once.at(mu), reference.at(mu)
        assert np.array_equal(np.argsort([p.value for p in here]),
                              np.argsort([q.value for q in there]))
        for p, q in zip(here, there):
            assert model.x_norm(p.u - q.u) <= 1e-9 * max(model.x_norm(p.u), model.x_norm(q.u))
