"""Greedy sampling variants: plain, grid-adaptive, and deflated."""
import contextlib
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bifrb.analysis import error_sweep, solution_ensemble
from bifrb.estimators import EstimatorKind, estimator_sweep
from bifrb import estimators, greedy
from bifrb.greedy import (AdaptiveConfig, GreedyConfig, GreedyStatus,
                          _ranked_candidates, adaptive_greedy, deflated_greedy,
                          deflated_snapshots, refinement, vanilla_greedy)
from bifrb.model import ParameterSpace, make_model
from bifrb.nlsolve import NewtonConfig, discover_solutions, newton
from bifrb.rom import BasisMatrix


INVALID_SETTINGS = [
    (NewtonConfig, {"tol": -1.0}, ["newton_tol"]),
    (NewtonConfig, {"tol": math.inf}, ["newton_tol"]),
    (NewtonConfig, {"max_iter": 0}, ["max_iter"]),
    (NewtonConfig, {"tol": 0.0, "max_iter": -1}, ["newton_tol", "max_iter"]),
    (GreedyConfig, {"n_max": 0}, ["n_max"]),
    (GreedyConfig, {"tol": 0.0}, ["tol"]),
    (GreedyConfig, {"n_max": 0, "tol": math.nan}, ["n_max", "tol"]),
    (GreedyConfig, {"estimator_kind": "foo"}, ["'foo' is not a valid EstimatorKind"]),
    (AdaptiveConfig, {"n_ref": 0}, ["n_ref"]),
    (AdaptiveConfig, {"bif_tol": math.inf}, ["bif_tol"]),
    (AdaptiveConfig, {"n_ref": 0, "bif_tol": 0.0}, ["n_ref", "bif_tol"]),
]


@pytest.mark.parametrize("config, values, named", INVALID_SETTINGS, ids=[
    f"{config.__name__}-" + "-".join(f"{k}={v}" for k, v in values.items())
    for config, values, _ in INVALID_SETTINGS])
def test_configs_refuse_invalid_values_when_built(config, values, named):
    """Every rule of the three library configs fires at construction, with one
    message naming every problem, and a built config cannot change: no
    solver or strategy can be handed an invalid one."""
    with pytest.raises(ValueError) as refused:
        config(**values)
    message = str(refused.value)
    assert all(problem in message for problem in named)
    assert message.count("; ") == len(named) - 1
    name = next(iter(values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config(), name, values[name])


def test_configs_accept_the_ends_of_their_ranges():
    assert NewtonConfig(max_iter=1, tol=1e300).max_iter == 1
    assert GreedyConfig(n_max=1).n_max == 1
    assert AdaptiveConfig(n_ref=1, bif_tol=1e-300).n_ref == 1
    assert GreedyConfig(estimator_kind="linear").estimator_kind is EstimatorKind.LINEAR


def test_greedy_config_validation():
    with pytest.raises(ValueError):
        GreedyConfig(n_max=0)
    with pytest.raises(ValueError):
        GreedyConfig(tol=0.0)
    GreedyConfig()


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(n_ref=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(bif_tol=0.0)
    AdaptiveConfig()


@pytest.mark.parametrize("run, problem", [
    (lambda m, s: vanilla_greedy(m, s, GreedyConfig(n_max=0)), "n_max"),
    (lambda m, s: adaptive_greedy(m, s, GreedyConfig(n_max=0)), "n_max"),
    (lambda m, s: deflated_greedy(m, s, GreedyConfig(n_max=0)), "n_max"),
    (lambda m, s: adaptive_greedy(m, s, GreedyConfig(), AdaptiveConfig(n_ref=0)), "n_ref"),
], ids=["vanilla", "adaptive", "deflated", "adaptive-n_ref"])
def test_strategies_validate_before_any_solve(run, problem, chafee, monkeypatch):
    """An invalid setting stops every strategy before its first Newton solve."""
    def fail(*args, **kwargs):
        raise AssertionError("a Newton solve ran before validation")

    monkeypatch.setattr(greedy, "newton", fail)
    with pytest.raises(ValueError, match=problem):
        run(chafee, ParameterSpace.equispaced(5.0, 15.0, 5))


def test_refinement_inserts_between_neighbors():
    space = ParameterSpace.equispaced(0.0, 10.0, 11)
    refined = refinement(space, 5.0, None, 4, 0.01)
    assert len(refined) == 15
    new_pts = sorted(set(refined.train_points) - set(space.train_points))
    assert np.allclose(new_pts, [4.4, 4.8, 5.2, 5.6])


def test_refinement_respects_similarity_guard():
    space = ParameterSpace.equispaced(0.0, 10.0, 11)
    same = refinement(space, 5.0, 5.005, 4, 0.01)
    assert same.train_points == space.train_points
    moved = refinement(space, 5.0, 4.0, 4, 0.01)
    assert len(moved) == 15


def test_refinement_at_grid_ends_uses_single_interval():
    space = ParameterSpace.equispaced(0.0, 10.0, 11)
    low = refinement(space, 0.0, None, 2, 0.01)
    assert len(low) == 13
    assert all(0.0 < p < 1.0 for p in set(low.train_points) - set(space.train_points))
    high = refinement(space, 10.0, None, 2, 0.01)
    assert all(9.0 < p < 10.0 for p in set(high.train_points) - set(space.train_points))


def test_refinement_rejects_off_grid_minimizer():
    space = ParameterSpace.equispaced(0.0, 10.0, 11)
    with pytest.raises(ValueError):
        refinement(space, 5.5, None, 2, 0.01)


def test_vanilla_greedy_certifies_unique_branch_region(bratu):
    space = ParameterSpace.equispaced(0.5, 2.0, 21)
    basis, report = vanilla_greedy(bratu, space, GreedyConfig(tol=1e-3))
    assert report.status == GreedyStatus.TOLERANCE_MET
    assert report.strategy == "vanilla"
    # the fold region starts beyond 2, so a handful of snapshots suffices
    assert 1 <= basis.n <= 6
    assert report.mu0 == 2.0 and report.mu0_note is None
    assert basis.orthonormality_defect() <= 1e-10
    final = report.sweeps[-1]
    assert all(row["valid"] == 1 and row["delta"] <= 1e-3 for row in final)
    assert report.records[-1].enrich_status == "tolerance_met"


def test_initialization_scans_past_null_snapshots(chafee):
    # below the pitchfork the only solution is zero, which cannot seed a basis
    space = ParameterSpace.equispaced(5.0, 15.0, 21)
    basis, report = vanilla_greedy(chafee, space, GreedyConfig(tol=1e-3, n_max=10))
    # first usable snapshot sits on the first grid point past the pitchfork
    assert report.mu0 == 10.0
    assert report.mu0_note is not None and "mu0=5" in report.mu0_note
    assert basis.mu_values[0] == report.mu0
    assert report.mu0 > np.pi**2


def test_initialization_fails_on_trivial_interval(chafee):
    space = ParameterSpace.equispaced(5.0, 8.0, 7)
    with pytest.raises(RuntimeError):
        vanilla_greedy(chafee, space, GreedyConfig())


def test_adaptive_greedy_refines_toward_critical_point(chafee):
    space = ParameterSpace.equispaced(8.0, 12.0, 5)
    cfg = GreedyConfig(tol=1e-3, n_max=8)
    basis, report = adaptive_greedy(chafee, space, cfg, AdaptiveConfig(n_ref=2, bif_tol=1e-2))
    assert report.strategy == "adaptive"
    assert len(report.train_final) > len(space)
    assert report.mu_bif is not None
    assert abs(report.mu_bif - np.pi**2) < 0.5
    # inserted points cluster inside the original interval
    assert all(8.0 <= p <= 12.0 for p in report.train_final)


def test_deflated_greedy_certifies_all_pitchfork_branches(chafee):
    space = ParameterSpace.equispaced(5.0, 15.0, 21)
    basis, report = deflated_greedy(chafee, space, GreedyConfig(tol=1e-3))
    assert report.status == GreedyStatus.TOLERANCE_MET
    assert report.strategy == "deflated"
    assert basis.n <= 6
    final = report.sweeps[-1]
    assert all(row["delta"] <= 1e-3 for row in final)
    # beyond the pitchfork each parameter certifies three coexisting branches
    mus_three = {row["mu"] for row in final
                 if sum(r["mu"] == row["mu"] for r in final) == 3}
    assert any(mu > np.pi**2 for mu in mus_three)


def test_deflated_greedy_harvests_coexisting_fold_branches(bratu):
    space = ParameterSpace.equispaced(0.5, 2.0, 11)
    basis, report = deflated_greedy(bratu, space, GreedyConfig(tol=1e-3))
    assert report.status == GreedyStatus.TOLERANCE_MET
    # both fold branches enter the basis, by selection or by harvest
    assert basis.n >= 2
    harvested = sum(r.snapshot_growth for r in report.records)
    selected = sum(1 for r in report.records if r.enrich_status == "enriched")
    assert harvested + selected >= 2


def test_deflated_reselection_walks_the_ranking_when_nothing_grows(chafee):
    # With an unreachable tolerance every reachable root eventually lands in
    # the span; the final iteration must then try the ranked candidates one
    # after another, logging why each added nothing, before giving up.
    space = ParameterSpace.equispaced(5.0, 15.0, 11)
    _, report = deflated_greedy(chafee, space,
                                GreedyConfig(tol=1e-14, n_max=30))
    assert report.status == GreedyStatus.STAGNATION
    last = report.records[-1]
    assert last.enrich_status == "stagnation"
    assert len(last.skipped) >= 2
    assert all(reason == "no_growth" or reason.startswith(("hf_", "gs_"))
               for _, _, reason in last.skipped)
    assert len({mu for mu, _, _ in last.skipped}) >= 2


def test_deflated_snapshot_harvests_the_coexisting_root(bratu):
    # At mu = 1 bratu has a lower and an upper root.  From a basis holding the
    # lower one, the snapshot lands on it again and adds nothing, and the
    # harvest adds the upper root.
    mu = 1.0
    lower, upper = discover_solutions(bratu, mu, bratu.default_guesses)
    assert bratu.x_norm(lower) < bratu.x_norm(upper)
    basis = BasisMatrix(bratu)
    basis.enrich(lower, mu)
    entry = SimpleNamespace(mu=mu, branch=0, u_n=basis.project(lower))
    assert deflated_snapshots(basis, NewtonConfig(), entry) == ("rejected", 1)
    assert basis.n == 2 and basis.mu_values == [mu, mu]
    assert basis.projection_error(upper) <= 1e-8 * bratu.x_norm(upper)


@pytest.mark.parametrize("kind, grid", [("chafee", (5.0, 15.0, 11)),
                                        ("bratu", (0.5, 3.6, 11))])
def test_deflated_harvest_starts_from_the_battery_and_the_snapshot_only(
        kind, grid, monkeypatch):
    # No guess store crosses greedy iterations: every harvest drives the
    # model's guess battery against the one root of its own snapshot.
    model = make_model(kind, 41)
    calls = []

    def spy(model_, mu, guesses, cfg=None, roots=(), drive=True):
        calls.append((mu, [np.array(g) for g in guesses], list(roots)))
        return discover_solutions(model_, mu, guesses, cfg, roots, drive)

    monkeypatch.setattr(greedy, "discover_solutions", spy)
    _, report = deflated_greedy(model, ParameterSpace.equispaced(*grid),
                                GreedyConfig(tol=1e-3))
    selected = [r.mu_selected for r in report.records if r.mu_selected is not None]
    assert len(calls) >= len(selected) >= 1
    battery = model.default_guesses
    for _, guesses, roots in calls:
        assert len(guesses) == len(battery)
        assert all(np.array_equal(g, b) for g, b in zip(guesses, battery))
        assert len(roots) == 1


def test_report_round_trips_through_json(bratu):
    space = ParameterSpace.equispaced(0.5, 2.0, 11)
    _, report = vanilla_greedy(bratu, space, GreedyConfig(tol=1e-2))
    payload = report.to_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["strategy"] == "vanilla"
    assert back["status"] == "tolerance_met"
    assert back["n_iterations"] == len(report.records)
    assert isinstance(back["train_final"], list)
    for rec in back["records"]:
        assert set(rec) == {"iteration", "n_basis", "train_size", "max_delta",
                            "kind_used", "mu_selected", "branch_selected",
                            "enrich_status", "snapshot_growth", "reselections",
                            "mu_bif", "skipped"}


def test_greedy_respects_n_max(chafee):
    space = ParameterSpace.equispaced(5.0, 15.0, 21)
    cfg = GreedyConfig(tol=1e-14, n_max=2, newton=NewtonConfig())
    basis, report = deflated_greedy(chafee, space, cfg)
    assert report.status == GreedyStatus.N_MAX_REACHED
    assert basis.n >= 2


def test_ranked_candidates_put_largest_bound_first(chafee):
    basis = BasisMatrix(chafee)
    basis.enrich(newton(chafee, 12.0, chafee.default_guesses[0]).u, 12.0)
    sw = estimator_sweep(basis, np.linspace(10.0, 13.0, 13))
    ranked = _ranked_candidates(sw, 0.0, basis.mu_values)
    deltas = [e.delta for e in ranked]
    assert deltas == sorted(deltas, reverse=True)
    assert ranked[0].delta == sw.max_delta
    # Entries at or below tolerance drop out; equal bounds go farthest from
    # the sampled parameters first, then to the smaller parameter.
    entries = [SimpleNamespace(mu=mu, branch=0, delta=d) for mu, d in
               [(1.0, math.inf), (2.0, 0.5), (3.0, math.inf), (4.0, 1e-4), (5.0, 0.5)]]
    ranked = _ranked_candidates(entries, 1e-3, [1.5, None])
    assert [e.mu for e in ranked] == [3.0, 1.0, 5.0, 2.0]


def test_ranked_candidates_do_not_let_roundoff_pick_between_mirror_branches():
    # the ± branches at one parameter agree in delta to about 13 digits:
    # the lower branch index wins, whichever bound is a few ulps larger
    delta = 2.718281828459045e-2
    for bump in (np.nextafter(delta, 1.0), np.nextafter(delta, 0.0), delta * (1 + 1e-10)):
        for k in (1, 2):
            entries = [SimpleNamespace(mu=15.0, branch=b, delta=delta) for b in range(3)]
            entries[0].delta = 1e-2
            entries[k].delta = bump
            ranked = _ranked_candidates(entries, 1e-3, [12.0])
            assert [e.branch for e in ranked] == [1, 2, 0], (bump, k)
    # bounds that differ in the 8th digit still rank by size
    entries = [SimpleNamespace(mu=15.0, branch=b, delta=d)
               for b, d in enumerate([1.0000001, 1.0000002])]
    assert [e.branch for e in _ranked_candidates(entries, 1e-3, [])] == [1, 0]


def _assert_terminal(report, status):
    last = report.records[-1]
    assert report.status == status and last.enrich_status == status.value
    assert last.mu_selected is None and last.branch_selected is None
    assert [r.iteration for r in report.records] == list(range(1, len(report.records) + 1))
    assert all(r.enrich_status == "enriched" for r in report.records[:-1])
    return last


def test_vanilla_greedy_stops_at_n_max_and_on_stagnation(bratu):
    space = ParameterSpace.equispaced(0.5, 2.0, 7)
    basis, report = vanilla_greedy(bratu, space, GreedyConfig(tol=1e-14, n_max=2))
    last = _assert_terminal(report, GreedyStatus.N_MAX_REACHED)
    assert last.n_basis == basis.n == 2 and last.skipped == []
    assert last.max_delta > 1e-14
    # With an unreachable tolerance every snapshot eventually lies in the span:
    # the last iteration tries every candidate and logs why each added nothing.
    basis, report = vanilla_greedy(bratu, space, GreedyConfig(tol=1e-14, n_max=30))
    last = _assert_terminal(report, GreedyStatus.STAGNATION)
    assert last.n_basis == basis.n < 30
    candidates = {row["mu"] for row in report.sweeps[-1] if row["delta"] > 1e-14}
    assert {mu for mu, _, _ in last.skipped} == candidates
    assert all(reason == "gs_redundant" for _, _, reason in last.skipped)


def test_adaptive_greedy_stops_at_n_max_and_on_stagnation(chafee, bratu):
    space = ParameterSpace.equispaced(8.0, 12.0, 5)
    basis, report = adaptive_greedy(chafee, space, GreedyConfig(tol=1e-14, n_max=3),
                                    AdaptiveConfig(n_ref=2))
    last = _assert_terminal(report, GreedyStatus.N_MAX_REACHED)
    assert last.n_basis == basis.n == 3 and last.skipped == []
    # the first refinement is unconditional and shows in its own record
    assert report.records[0].train_size == len(space) + 2
    assert all(r.mu_bif is not None for r in report.records[:-1])
    assert last.train_size == len(report.train_final)
    assert report.mu_bif is not None

    space = ParameterSpace.equispaced(0.5, 2.0, 4)
    basis, report = adaptive_greedy(bratu, space, GreedyConfig(tol=1e-14, n_max=30),
                                    AdaptiveConfig(n_ref=2))
    last = _assert_terminal(report, GreedyStatus.STAGNATION)
    assert last.n_basis == basis.n < 30 and len(last.skipped) >= 2
    assert all(reason.startswith(("hf_", "gs_")) for _, _, reason in last.skipped)
    assert report.records[0].train_size == len(space) + 2
    assert all(r.mu_bif is not None for r in report.records[:-1])
    assert last.train_size == len(report.train_final) > len(space)


def _branch_count(report) -> int:
    mus = [row["mu"] for row in report.sweeps[-1]]
    return max(mus.count(mu) for mu in mus)


@pytest.mark.parametrize("kind, deflated_grid, adaptive_interval", [
    ("chafee", (5.0, 15.0, 11), (5.0, 15.0)),
    ("bratu", (0.5, 3.0, 6), (0.5, 3.5)),
])
def test_greedy_pipeline_is_mesh_independent(kind, deflated_grid, adaptive_interval):
    # Mesh 201 and 801 (measured: chafee n = 3, 3 branches, max_delta 7.110e-6
    # and 7.116e-6, mu* = 9.870073, 23 error rows, worst error 3.7865e-6 and
    # 3.7902e-6; bratu n = 7, 2 branches, 1.0633e-5 and 1.0690e-5, mu* = 3.5,
    # 22 error rows, worst error 1.1820e-6 and 1.1891e-6; none flagged)
    runs = {}
    test_mus = np.linspace(deflated_grid[0], deflated_grid[1], 11)
    for mesh in (201, 801):
        model = make_model(kind, mesh)
        basis, report = deflated_greedy(model, ParameterSpace.equispaced(*deflated_grid),
                                        GreedyConfig(tol=1e-3))
        sweep = error_sweep(basis, test_mus, solution_ensemble(model, test_mus))
        a_basis, a_report = adaptive_greedy(
            model, ParameterSpace.equispaced(*adaptive_interval, 4),
            GreedyConfig(tol=1e-6, n_max=25), AdaptiveConfig(n_ref=16))
        runs[mesh] = {"deflated": (report.status, basis.n, _branch_count(report)),
                      "max_delta": report.records[-1].max_delta,
                      "adaptive": (a_report.status, a_basis.n),
                      "mu_bif": a_report.mu_bif, "train": np.sort(a_report.train_final),
                      "flags": [row.flag for row in sweep.rows], "error": sweep.max_reduced()}
    coarse, fine = runs[201], runs[801]
    assert coarse["deflated"] == fine["deflated"]
    assert coarse["flags"] == fine["flags"]
    assert len(coarse["flags"]) == (23 if kind == "chafee" else 22)
    assert fine["error"] == pytest.approx(coarse["error"], rel=1e-2)
    assert coarse["deflated"][2] == (3 if kind == "chafee" else 2)
    assert fine["max_delta"] == pytest.approx(coarse["max_delta"], rel=1e-2)
    assert coarse["adaptive"] == fine["adaptive"]
    # mu* of the fine mesh lies in the training cell around mu* of the coarse one
    train = coarse["train"]
    i = int(np.argmin(np.abs(train - coarse["mu_bif"])))
    assert train[max(i - 1, 0)] <= fine["mu_bif"] <= train[min(i + 1, len(train) - 1)]


def spy_on_pencils(monkeypatch):
    """The (Jacobian, X) bands of every `_pencil_inf_sup` solve, as bytes."""
    seen = []
    solve = estimators._pencil_inf_sup

    def spied(a, b):
        seen.append(a.tobytes() + b[0].tobytes())  # b: the model's X side, B first
        return solve(a, b)

    monkeypatch.setattr(estimators, "_pencil_inf_sup", spied)
    return seen


@pytest.mark.parametrize("run", [
    lambda model, space: adaptive_greedy(model, space, GreedyConfig(n_max=6),
                                         AdaptiveConfig(n_ref=2)),
    lambda model, space: deflated_greedy(model, space, GreedyConfig()),
], ids=["adaptive", "deflated"])
def test_certificate_memo_changes_no_result(run, monkeypatch):
    """Each greedy run solves every distinct pencil once, and gives the same
    bits as a run whose scope is a no-op, which solves each pencil it meets."""
    model, space = make_model("chafee", 41), ParameterSpace.equispaced(5.0, 15.0, 11)
    pencils = spy_on_pencils(monkeypatch)

    def outcome():
        pencils.clear()
        basis, report = run(model, space)
        # repr keeps every float bit, a nan included
        return basis.matrix.tobytes(), repr(report.to_dict()), repr(report.sweeps)

    memo = outcome()
    solves = len(pencils)
    assert solves == len(set(pencils))
    # a second call pays for its own certificates: nothing carried over
    assert outcome() == memo and len(pencils) == solves
    monkeypatch.setattr(greedy, "certificate_memo", contextlib.nullcontext)
    assert outcome() == memo
    assert len(pencils) > solves == len(set(pencils))
