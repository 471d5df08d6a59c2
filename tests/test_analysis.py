"""Branch labeling, error sweeps, and deterministic CSV export."""
import contextlib
import math

import numpy as np
import pytest

from bifrb.analysis import (BranchPoint, ErrorRow, ErrorSweep, _assign_labels,
                            _match_flags, diagram_csv, error_sweep, error_vs_n, errors_csv,
                            relative_error, solution_ensemble, write_csv)
from bifrb import analysis, estimators
from bifrb.nlsolve import newton
from bifrb.rom import BasisMatrix


@pytest.fixture(scope="module")
def pitchfork_ensemble(chafee):
    return solution_ensemble(chafee, np.linspace(8.0, 12.0, 9))


@pytest.fixture(scope="module")
def pitchfork_basis(chafee):
    basis = BasisMatrix(chafee)
    for mu in (10.5, 12.0):
        basis.enrich(newton(chafee, mu, chafee.default_guesses[0]).u, mu)
    assert basis.n == 2
    return basis


def test_ensemble_tracks_pitchfork_structure(chafee, pitchfork_ensemble):
    ens = pitchfork_ensemble
    assert ens.branches() == [0, 1, 2]
    below = ens.at(8.0)
    assert len(below) == 1 and below[0].branch == 0
    assert abs(below[0].value) < 1e-8
    above = ens.at(12.0)
    assert len(above) == 3
    assert [p.branch for p in above] == [0, 1, 2]
    values = {p.branch: p.value for p in above}
    assert abs(values[0]) < 1e-8
    assert values[1] * values[2] < 0.0  # mirrored nontrivial branches


def test_ensemble_labels_are_stable_under_continuation(pitchfork_ensemble):
    # each nontrivial branch keeps one sign over its whole parameter range
    for branch in (1, 2):
        signs = {math.copysign(1.0, p.value)
                 for p in pitchfork_ensemble.points if p.branch == branch}
        assert len(signs) == 1


def test_ensemble_by_branch_and_mus(pitchfork_ensemble):
    grouped = pitchfork_ensemble.by_branch()
    assert list(grouped) == [0, 1, 2]
    assert len(grouped[0]) == 9  # the trivial branch spans the whole grid
    assert len(grouped[1]) < 9  # nontrivial branches exist only beyond pi^2
    assert pitchfork_ensemble.mus() == list(np.linspace(8.0, 12.0, 9))


def test_ensemble_of_fold_problem(bratu):
    ens = solution_ensemble(bratu, np.linspace(0.5, 2.0, 5))
    assert ens.branches() == [0, 1]
    for mu in ens.mus():
        pts = ens.at(mu)
        assert len(pts) == 2
        assert pts[0].value < pts[1].value  # lower branch keeps label 0


def test_empty_grid_gives_empty_ensemble(bratu, tmp_path):
    ens = solution_ensemble(bratu, [])
    assert len(ens) == 0
    diagram_csv(tmp_path / "diagram.csv", ens)
    assert (tmp_path / "diagram.csv").read_text() == "mu,branch,value\n"


def test_assign_labels_never_reuses_dead_branches():
    prev = [BranchPoint(1.0, 0, np.zeros(1), 0.0),
            BranchPoint(1.0, 3, np.zeros(1), 2.0)]
    labels, nxt = _assign_labels([2.1, 0.05, -5.0], prev, next_label=4)
    assert labels == [3, 0, 4]
    assert nxt == 5


def test_diagram_rows_are_sorted_and_typed(chafee, pitchfork_ensemble, tmp_path):
    diagram_csv(tmp_path / "diagram.csv", pitchfork_ensemble)
    head, *lines = (tmp_path / "diagram.csv").read_text().splitlines()
    assert head == "mu,branch,value"
    rows = [(float(mu), int(branch), float(value))
            for mu, branch, value in (line.split(",") for line in lines)]
    assert len(rows) == len(pitchfork_ensemble)
    keys = [(mu, branch) for mu, branch, _ in rows]
    assert keys == sorted(keys)
    trivial = [value for _, branch, value in rows if branch == 0]
    assert len(trivial) == 9
    assert all(abs(v) < 1e-8 for v in trivial)


def test_relative_error_modes(chafee, rng):
    u = rng.standard_normal(chafee.mesh_size)
    assert relative_error(chafee, u, u) == 0.0
    err = relative_error(chafee, u, 1.1 * u)
    assert np.isclose(err, 0.1, rtol=1e-10)
    # numerically zero reference switches to the absolute error
    zero = np.zeros(chafee.mesh_size)
    assert np.isclose(relative_error(chafee, zero, u), chafee.x_norm(u), rtol=1e-12)


def test_match_flags_ambiguity_and_reuse():
    assert _match_flags([[0.1, 0.1 + 1e-9]], [0], 2) == ["match_ambiguous"]
    assert _match_flags([[0.1, 0.4]], [0], 2) == [""]
    # two references forced onto one of two roots
    assert _match_flags([[0.0, 1.0], [0.2, 1.5]], [0, 0], 2) \
        == ["match_reused", "match_reused"]
    # a single root serving everything is the expected situation, not reuse
    assert _match_flags([[0.0], [0.2]], [0, 0], 1) == ["", ""]


def test_error_sweep_row_invariants(chafee, pitchfork_ensemble, pitchfork_basis):
    mus = pitchfork_ensemble.mus()
    sweep = error_sweep(pitchfork_basis, mus, pitchfork_ensemble)
    assert len(sweep) == len(pitchfork_ensemble)
    keys = [(r.mu, r.branch) for r in sweep.rows]
    assert keys == sorted(keys)
    assert len(sweep.unflagged()) + len(sweep.flagged()) == len(sweep)
    for row in sweep.rows:
        if row.branch == 0:
            assert row.error_kind == "absolute"
        else:
            assert row.error_kind == "relative"
        if not row.flag:
            # best approximation never beats the reduced solution
            assert row.projection_error <= row.reduced_error * (1.0 + 1e-6) + 1e-12


def test_error_sweep_bounds_cover_true_errors(chafee, pitchfork_ensemble, pitchfork_basis):
    mus = pitchfork_ensemble.mus()
    sweep = error_sweep(pitchfork_basis, mus, pitchfork_ensemble)
    refs = {(p.mu, p.branch): p.u for p in pitchfork_ensemble.points}
    checked = 0
    for row in sweep.unflagged():
        ref = refs[(row.mu, row.branch)]
        abs_err = row.reduced_error if row.error_kind == "absolute" \
            else row.reduced_error * chafee.x_norm(ref)
        if abs_err <= 1e-8:  # below solver noise certification is meaningless
            continue
        assert row.estimator >= abs_err
        checked += 1
    assert checked >= 5


def test_error_sweep_avg_max_and_branch_filter(chafee, pitchfork_ensemble, pitchfork_basis):
    sweep = error_sweep(pitchfork_basis, pitchfork_ensemble.mus(),
                        pitchfork_ensemble)
    unflagged = sweep.unflagged()
    assert sweep.max_reduced() == max(r.reduced_error for r in unflagged)
    assert np.isclose(sweep.avg_reduced(),
                      sum(r.reduced_error for r in unflagged) / len(unflagged))
    only1 = sweep.max_reduced(branch=1)
    assert only1 <= sweep.max_reduced()


def test_single_seed_sweep_never_flags(chafee, pitchfork_ensemble, pitchfork_basis):
    sweep = error_sweep(pitchfork_basis, pitchfork_ensemble.mus(),
                        pitchfork_ensemble, deflate=False)
    assert all(r.flag == "" for r in sweep.rows)
    assert len(sweep) == len(pitchfork_ensemble)


def test_deflated_error_sweep_and_estimator_sweep_solve_alike(
        chafee, pitchfork_ensemble, pitchfork_basis, monkeypatch):
    # Both run `estimators.reduced_branches`: the same reduced solves in the
    # same order, with the same guesses and known roots.
    calls = []
    real = estimators.discover_reduced_solutions

    def spy(basis, mu, guesses, cfg=None, roots=(), drive=True):
        calls.append((mu, drive, [np.array(g) for g in guesses], [np.array(r) for r in roots]))
        return real(basis, mu, guesses, cfg, roots, drive)

    monkeypatch.setattr(estimators, "discover_reduced_solutions", spy)
    mus = pitchfork_ensemble.mus()
    error_sweep(pitchfork_basis, mus, pitchfork_ensemble, deflate=True)
    by_errors = calls[:]
    calls.clear()
    estimators.deflated_estimator_sweep(pitchfork_basis, mus)
    assert len(by_errors) == len(calls) > len(mus)
    for (mu_a, drive_a, guesses_a, roots_a), (mu_b, drive_b, guesses_b, roots_b) in zip(
            by_errors, calls):
        assert (mu_a, drive_a) == (mu_b, drive_b)
        assert len(guesses_a) == len(guesses_b) and len(roots_a) == len(roots_b)
        assert all(np.array_equal(a, b) for a, b in zip(guesses_a + roots_a, guesses_b + roots_b))


def test_empty_basis_rows(chafee, pitchfork_ensemble):
    sweep = error_sweep(BasisMatrix(chafee), pitchfork_ensemble.mus(),
                        pitchfork_ensemble)
    for row in sweep.rows:
        assert math.isinf(row.estimator)
        if row.error_kind == "relative":
            assert np.isclose(row.reduced_error, 1.0)
        else:
            assert row.reduced_error < 1e-8


def test_error_vs_n_table(chafee, pitchfork_ensemble, pitchfork_basis, monkeypatch):
    table = error_vs_n(pitchfork_basis, pitchfork_ensemble.mus(), pitchfork_ensemble)
    assert [row["n"] for row in table] == list(range(1, pitchfork_basis.n + 1))
    assert set(table[0]) == {"n", "max_error", "avg_error", "n_flagged"}
    # the full basis resolves the test set better than its first column alone
    assert table[-1]["max_error"] < table[0]["max_error"]
    # the inf-sup memo of the table and its sweeps moves no bit of it
    monkeypatch.setattr(analysis, "certificate_memo", contextlib.nullcontext)
    assert repr(error_vs_n(pitchfork_basis, pitchfork_ensemble.mus(),
                           pitchfork_ensemble)) == repr(table)


def test_write_csv_is_deterministic_and_lossless(tmp_path):
    rows = [{"a": 1.0 / 3.0, "b": "x"}, {"a": 2.0**-40, "b": "y"}]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(p1, ["a", "b"], rows)
    write_csv(p2, ["a", "b"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0
    assert float(lines[2].split(",")[0]) == 2.0**-40


def test_csv_writers_emit_expected_headers(tmp_path, chafee, pitchfork_ensemble,
                                           pitchfork_basis):
    diagram_csv(tmp_path / "diagram.csv", pitchfork_ensemble)
    assert (tmp_path / "diagram.csv").read_text().splitlines()[0] == "mu,branch,value"

    sweep = error_sweep(pitchfork_basis, [12.0], pitchfork_ensemble)
    errors_csv(tmp_path / "errors.csv", sweep)
    head = (tmp_path / "errors.csv").read_text().splitlines()[0]
    assert head == "mu,branch,reduced_error,projection_error,estimator,error_kind,flag"


def test_error_rows_round_trip_to_dicts(tmp_path):
    row = ErrorRow(1.5, 2, 0.1, 0.05, 0.2)
    errors_csv(tmp_path / "errors.csv", ErrorSweep([row]))
    assert (tmp_path / "errors.csv").read_text().splitlines()[1] == (
        "1.5,2,0.10000000000000001,0.050000000000000003,0.20000000000000001,relative,")
    sweep = ErrorSweep([row, ErrorRow(1.5, 3, 0.4, 0.2, 0.5, flag="diverged")])
    assert len(sweep.flagged()) == 1
    assert sweep.max_reduced() == 0.1
