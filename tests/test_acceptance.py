"""End-to-end acceptance suite: one verdict line per criterion.

Each test appends a PASS or FAIL line to VERDICTS before asserting, and the
terminal summary hook in conftest echoes every collected line, so a single
run reports the status of all criteria even when one of them fails.
"""
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from bifrb.analysis import error_sweep, solution_ensemble
from bifrb.cli import main as cli_main
from bifrb.estimators import EstimatorKind, discover_reduced_solutions
from bifrb.greedy import (AdaptiveConfig, GreedyConfig, GreedyStatus,
                          adaptive_greedy, deflated_greedy, vanilla_greedy)
from bifrb.model import ParameterSpace
from bifrb.nlsolve import RootSet, discover_solutions, newton
from bifrb.pod import branchwise_pod, pod_basis
from bifrb.rom import BasisMatrix, reduced_jacobian, reduced_residual

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

PI_SQ = float(np.pi ** 2)

VERDICTS: list[str] = []
TIMES: dict[str, float] = {}


def record(num: int, label: str, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    VERDICTS.append(f"ACCEPTANCE CRITERION {num} ({label}): {word} - {detail}")
    assert passed, VERDICTS[-1]


def bratu_fold_parameter() -> float:
    """Fold location from the tangency of the slope equation.

    Solutions exist while theta = sqrt(2 mu) cosh(theta / 4) has roots; the
    gap between the line and the cosh branch closes at the fold.  Its
    maximizer is available in closed form, so the fold is the single root
    of the maximal gap in mu.
    """
    def gap(mu: float) -> float:
        theta = 4.0 * math.asinh(4.0 / math.sqrt(2.0 * mu))
        return theta - math.sqrt(2.0 * mu) * math.cosh(theta / 4.0)

    return float(brentq(gap, 3.0, 4.0, xtol=1e-12))


def local_cell(points, mu: float) -> float:
    """Largest grid interval adjacent to the point nearest mu."""
    pts = sorted(float(p) for p in points)
    i = min(range(len(pts)), key=lambda k: abs(pts[k] - mu))
    gaps = []
    if i > 0:
        gaps.append(pts[i] - pts[i - 1])
    if i + 1 < len(pts):
        gaps.append(pts[i + 1] - pts[i])
    return max(gaps)


@pytest.fixture(scope="module")
def ci_space():
    return ParameterSpace.equispaced(5.0, 15.0, 51)


@pytest.fixture(scope="module")
def ci_run(chafee_fine, ci_space):
    t0 = time.perf_counter()
    basis, report = deflated_greedy(chafee_fine, ci_space, GreedyConfig(tol=1e-3))
    TIMES["ci_run"] = time.perf_counter() - t0
    return basis, report


@pytest.fixture(scope="module")
def grid151():
    return np.linspace(5.0, 15.0, 151)


@pytest.fixture(scope="module")
def ci_oracle(chafee_fine, grid151):
    t0 = time.perf_counter()
    ens = solution_ensemble(chafee_fine, grid151)
    TIMES["ci_oracle"] = time.perf_counter() - t0
    return ens


def test_criterion_1_root_discovery(chafee_fine, bratu_fine):
    t0 = time.perf_counter()
    cases = [
        (chafee_fine, 12.0, 3, (-1.5, 1.5)),
        (chafee_fine, 5.0, 1, (-1.5, 1.5)),
        (bratu_fine, 1.0, 2, (-0.5, 5.5)),
        (bratu_fine, 3.6, 0, (-0.5, 5.5)),
    ]
    rng = np.random.default_rng(20240817)
    problems = []
    counts = []
    # Discovery time; the rest of the wall time is the multistart oracle.
    t_disc = 0.0
    for model, mu, expected, amp_range in cases:
        t1 = time.perf_counter()
        found = list(discover_solutions(model, mu, model.default_guesses))
        t_disc += time.perf_counter() - t1
        counts.append(len(found))
        if len(found) != expected:
            problems.append(f"{model.kind} mu={mu:g}: discover found "
                            f"{len(found)}, expected {expected}")
            continue
        # Oracle: 100 plain Newton runs from scaled-battery-shape guesses
        # plus noise, deduplicated by X-distance.
        shape = np.asarray(model.default_guesses[-1], dtype=float)
        shape = shape / np.max(np.abs(shape))
        dim = shape.size
        oracle: list[np.ndarray] = []
        for _ in range(100):
            guess = rng.uniform(*amp_range) * shape \
                + 0.2 * rng.standard_normal(dim)
            result = newton(model, mu, guess)
            if not result.converged:
                continue
            sep = 1e-6 * max(1.0, model.x_norm(result.u))
            if all(model.x_norm(result.u - r) > sep for r in oracle):
                oracle.append(result.u)
        if len(oracle) != expected:
            problems.append(f"{model.kind} mu={mu:g}: multistart found "
                            f"{len(oracle)}, expected {expected}")
            continue
        for r in oracle:
            dist = min((model.x_norm(r - f) for f in found), default=math.inf)
            if dist > 1e-6 * max(1.0, model.x_norm(r)):
                problems.append(f"{model.kind} mu={mu:g}: multistart root "
                                f"unmatched, distance {dist:.2e}")
    dt = time.perf_counter() - t0
    split = f"discovery {t_disc:.1f} s + multistart {dt - t_disc:.1f} s"
    if dt >= 10.0:
        problems.append(f"runtime {dt:.1f} s >= 10 s ({split})")
    detail = "; ".join(problems) if problems else (
        f"counts {'/'.join(map(str, counts))} match 100-seed multistart, "
        f"all roots matched, {dt:.1f} s ({split})")
    record(1, "root discovery", not problems, detail)


def test_criterion_2_bifurcation_detection(chafee_fine, bratu_fine):
    # Defaults stall on these smooth desk-scale manifolds: the greedy admits
    # only a few enrichments, so the sweep tolerance is tightened and the
    # refinement made denser to let the grid zoom onto the critical point.
    t0 = time.perf_counter()
    _, rep_ci = adaptive_greedy(chafee_fine,
                                ParameterSpace.equispaced(5.0, 15.0, 4),
                                GreedyConfig(tol=1e-6, n_max=25),
                                AdaptiveConfig(n_ref=16))
    t_ci = time.perf_counter() - t0
    err_ci = abs(rep_ci.mu_bif - PI_SQ)
    cell = local_cell(rep_ci.train_final, rep_ci.mu_bif)

    t0 = time.perf_counter()
    _, rep_br = adaptive_greedy(bratu_fine,
                                ParameterSpace.equispaced(0.5, 3.5, 4),
                                GreedyConfig(tol=1e-6, n_max=25),
                                AdaptiveConfig(n_ref=16))
    t_br = time.perf_counter() - t0
    lam = bratu_fold_parameter()
    err_br = abs(rep_br.mu_bif - lam)

    problems = []
    if err_ci > cell:
        problems.append(f"pitchfork error {err_ci:.2e} > cell {cell:.2e}")
    if err_ci > 0.1:
        problems.append(f"pitchfork error {err_ci:.2e} > 0.1")
    if err_br > 0.05:
        problems.append(f"fold error {err_br:.2e} > 0.05")
    if t_ci >= 120.0 or t_br >= 120.0:
        problems.append(f"runtimes {t_ci:.0f}/{t_br:.0f} s, limit 120 s each")
    detail = "; ".join(problems) if problems else (
        f"pitchfork mu*={rep_ci.mu_bif:.6f} (err {err_ci:.1e} <= cell "
        f"{cell:.1e}), fold mu*={rep_br.mu_bif:.4f} (err {err_br:.1e} <= "
        f"0.05), {t_ci:.1f}/{t_br:.1f} s")
    record(2, "bifurcation detection", not problems, detail)


def test_criterion_3_multibranch_certification(chafee_fine, ci_run, ci_oracle,
                                               grid151):
    basis, report = ci_run
    t0 = time.perf_counter()
    sweep = error_sweep(basis, grid151, ci_oracle, deflate=True)
    t_sweep = time.perf_counter() - t0
    total = TIMES["ci_run"] + TIMES["ci_oracle"] + t_sweep

    problems = []
    if report.status is not GreedyStatus.TOLERANCE_MET:
        problems.append(f"status {report.status.value}")
    if basis.n > 35:
        problems.append(f"basis size {basis.n} > 35")
    if not {0, 1, 2} <= set(ci_oracle.branches()):
        problems.append(f"oracle branches {ci_oracle.branches()}")
    worst = {b: sweep.max_reduced(branch=b) for b in (0, 1, 2)}
    bad = {b: e for b, e in worst.items() if e > 1e-2}
    if bad:
        problems.append(f"unflagged error over 1e-2 on branches {bad}")
    off_grid = [r for r in sweep.flagged() if abs(r.mu - PI_SQ) > 0.2]
    if off_grid:
        problems.append(f"{len(off_grid)} flagged rows away from the "
                        "critical point")
    if total >= 600.0:
        problems.append(f"runtime {total:.0f} s >= 600 s")
    detail = "; ".join(problems) if problems else (
        f"n={basis.n}, {len(sweep.rows)} rows, worst unflagged error "
        f"{max(worst.values()):.2e} per branch <= 1e-2, "
        f"{len(sweep.flagged())} flagged, {total:.0f} s")
    record(3, "multi-branch certification", not problems, detail)


def test_criterion_4_baseline_failure(chafee_fine, ci_space, ci_run,
                                      ci_oracle, grid151):
    basis_d, _ = ci_run
    t0 = time.perf_counter()
    vbasis, _ = vanilla_greedy(chafee_fine, ci_space, GreedyConfig(tol=1e-3))
    vsweep = error_sweep(vbasis, grid151, ci_oracle,
                         deflate=False)
    vrows = [r for r in vsweep.rows
             if r.branch in (1, 2) and r.mu > PI_SQ]
    worst_v = max((r.reduced_error for r in vrows), default=0.0)

    # Branch-wise compression fed only the symmetric branch: past the
    # critical point that branch is identically zero, so every snapshot is
    # filtered as null and no basis survives at matched size.
    with pytest.warns(UserWarning, match="excluded"):
        pods = branchwise_pod(chafee_fine, {0: ci_oracle.by_branch()[0]},
                              n_modes=basis_d.n)
    psweep = error_sweep(BasisMatrix(chafee_fine),
                         [float(m) for m in grid151 if m > PI_SQ + 0.2][:5],
                         ci_oracle)
    prows = [r for r in psweep.rows if r.branch in (1, 2)]
    worst_p = max((r.reduced_error for r in prows), default=0.0)
    dt = time.perf_counter() - t0

    problems = []
    if pods:
        problems.append(f"symmetric-only compression kept branches "
                        f"{sorted(pods)}")
    if worst_v < 0.1:
        problems.append(f"single-branch greedy error {worst_v:.2e} < 0.1")
    if worst_p < 0.1:
        problems.append(f"symmetric-only baseline error {worst_p:.2e} < 0.1")
    if dt >= 300.0:
        problems.append(f"runtime {dt:.0f} s >= 300 s")
    fmt = lambda v: "inf" if math.isinf(v) else f"{v:.2f}"
    detail = "; ".join(problems) if problems else (
        f"single-branch greedy worst {fmt(worst_v)} and symmetric-only "
        f"baseline worst {fmt(worst_p)} on the mirror branches, both >= "
        f"0.1, {dt:.0f} s")
    record(4, "baseline failure reproduction", not problems, detail)


def _hf_deflated_steps(model, mu, guess, roots, cap=15):
    """Per-step relative gap between the scalar-update step and the dense
    rank-one solve along a full-order deflated trajectory."""
    op = RootSet(model.x_apply, [np.asarray(r) for r in roots])
    y = np.asarray(guess, dtype=float).copy()
    rels = []
    for _ in range(cap):
        res = model.residual(y, mu)
        if not np.all(np.isfinite(res)) or model.x_norm(res) < 1e-11:
            break
        jac = model.jacobian(y, mu)
        du = np.linalg.solve(jac, -res)
        m, g = op.factor_and_gradient(y)
        denom = 1.0 - float(g @ du) / m
        if abs(denom) < 1e-13:
            break
        step = du / denom
        dense = np.linalg.solve(m * jac + np.outer(res, g), -m * res)
        rels.append(model.x_norm(step - dense)
                    / max(model.x_norm(dense), 1e-300))
        y = y + step
        if model.x_norm(y) > 1e6:
            break
    return rels


def _rb_deflated_steps(basis, mu, guess, roots, cap=15):
    # Coordinates of an X-orthonormal basis: the Euclidean norm here is the
    # X-norm of the lifted vector.
    op = RootSet(None, [np.asarray(r) for r in roots])
    y = np.asarray(guess, dtype=float).copy()
    rels = []
    for _ in range(cap):
        res = reduced_residual(basis, y, mu)
        if not np.all(np.isfinite(res)) or np.linalg.norm(res) < 1e-12:
            break
        jac = reduced_jacobian(basis, y, mu)
        du = np.linalg.solve(jac, -res)
        m, g = op.factor_and_gradient(y)
        denom = 1.0 - float(g @ du) / m
        if abs(denom) < 1e-13:
            break
        step = du / denom
        dense = np.linalg.solve(m * jac + np.outer(res, g), -m * res)
        rels.append(np.linalg.norm(step - dense)
                    / max(np.linalg.norm(dense), 1e-300))
        y = y + step
    return rels


def test_criterion_5_sherman_morrison_equivalence(chafee_fine, bratu_fine,
                                                  ci_run):
    basis, _ = ci_run
    hf = []
    for mu in (11.0, 12.0, 13.0):
        root = newton(chafee_fine, mu, chafee_fine.default_guesses[0]).u
        hf += _hf_deflated_steps(chafee_fine, mu,
                                 chafee_fine.default_guesses[0], [root])
    lower = newton(bratu_fine, 1.0, bratu_fine.default_guess).u
    hf += _hf_deflated_steps(bratu_fine, 1.0, bratu_fine.default_guesses[1],
                             [lower])

    rb = []
    for mu in (11.0, 12.0, 13.0):
        seed = basis.project(chafee_fine.default_guesses[0])
        roots = discover_reduced_solutions(basis, mu, [seed])
        rb += _rb_deflated_steps(basis, mu, seed, [roots[0]])
        rb += _rb_deflated_steps(
            basis, mu, 0.5 * basis.project(chafee_fine.default_guesses[1]),
            [roots[0]])

    worst = max(hf + rb)
    ok = len(hf) >= 25 and len(rb) >= 25 and worst <= 1e-8
    record(5, "rank-one update equivalence", ok,
           f"{len(hf)} full-order and {len(rb)} reduced deflated steps, "
           f"worst relative gap {worst:.2e} <= 1e-8")


def test_criterion_6_orthonormality_and_pod_identity(chafee_fine, ci_run,
                                                     ci_oracle, grid151):
    basis_d, _ = ci_run
    problems = []

    inc = BasisMatrix(chafee_fine)
    enriched = 0
    worst_defect = 0.0
    for i in (5, 20, 40, 60, 75, 90, 105, 120, 135, 150):
        for p in ci_oracle.at(float(grid151[i])):
            enr = inc.enrich(p.u, p.mu)
            enriched += int(enr.enriched)
            if inc.n:
                worst_defect = max(worst_defect, inc.orthonormality_defect())
    if enriched < 3:
        problems.append(f"only {enriched} incremental enrichments")
    if worst_defect > 1e-10:
        problems.append(f"incremental defect {worst_defect:.2e} > 1e-10")
    if basis_d.orthonormality_defect() > 1e-10:
        problems.append(f"greedy basis defect "
                        f"{basis_d.orthonormality_defect():.2e} > 1e-10")

    by_branch = ci_oracle.by_branch()
    snaps = by_branch[1] + by_branch[2]
    pod = pod_basis(chafee_fine, snaps, n_modes=4)
    if pod.basis.orthonormality_defect() > 1e-10:
        problems.append(f"compression basis defect "
                        f"{pod.basis.orthonormality_defect():.2e} > 1e-10")
    lam = pod.singular_values ** 2
    tail = float(np.sum(lam[pod.n:]))
    total = float(np.sum(lam))
    sq = sum(chafee_fine.x_norm(s - pod.basis.lift(pod.basis.project(s))) ** 2
             for s in snaps)
    identity_rel = abs(sq - tail) / total
    if identity_rel > 1e-8:
        problems.append(f"projection identity off by {identity_rel:.2e}")
    detail = "; ".join(problems) if problems else (
        f"defect <= {max(worst_defect, basis_d.orthonormality_defect()):.1e} "
        f"over {enriched} enrichments and both bases, projection identity "
        f"to {identity_rel:.1e}")
    record(6, "orthonormality and projection identity", not problems, detail)


def test_criterion_7_estimator_behavior(bratu_fine, ci_run):
    basis, report = ci_run
    problems = []

    # After enriching at the selected parameter the harvest pulls in every
    # coexisting branch, so all of its rows must drop to residual scale.
    newton_tol = GreedyConfig().newton.tol
    worst_ratio = 0.0
    checked = 0
    for rec in report.records:
        if rec.mu_selected is None:
            continue
        post = report.sweeps[rec.iteration]
        rows = [r for r in post if r["mu"] == rec.mu_selected]
        if not rows:
            problems.append(f"no post-enrichment rows at mu="
                            f"{rec.mu_selected:g}")
            continue
        for r in rows:
            if not r["valid"] or not math.isfinite(r["beta"]):
                problems.append(f"invalid post-enrichment row at mu="
                                f"{r['mu']:g}")
                continue
            worst_ratio = max(worst_ratio,
                              r["delta"] * r["beta"] / (10.0 * newton_tol))
            checked += 1
    if checked == 0:
        problems.append("no enrichments to check")
    if worst_ratio > 1.0:
        problems.append(f"post-enrichment bound ratio {worst_ratio:.2e} > 1")

    # Certified-regime dichotomy: away from the fold the nonlinear bound
    # becomes admissible everywhere within a few iterations; on a range
    # crossing the fold it stays inadmissible near the critical point at
    # the same iteration count.
    cfg = dict(tol=1e-5, estimator_kind=EstimatorKind.NONLINEAR_BRR)
    _, rep_a = vanilla_greedy(bratu_fine,
                              ParameterSpace.equispaced(0.5, 2.0, 51),
                              GreedyConfig(**cfg))
    _, rep_b = vanilla_greedy(bratu_fine,
                              ParameterSpace.equispaced(0.5, 3.5, 51),
                              GreedyConfig(**cfg))

    def admissible_everywhere(rows):
        taus = [r["tau"] for r in rows if math.isfinite(r["tau"])]
        return bool(taus) and all(t <= 1.0 for t in taus)

    k_star = next((k for k, s in enumerate(rep_a.sweeps)
                   if admissible_everywhere(s)), None)
    if k_star is None or k_star >= 10:
        problems.append(f"admissibility index {k_star} not within 10 "
                        "iterations on the pre-fold range")
    elif k_star >= len(rep_b.sweeps):
        problems.append("fold-range run ended before the matched iteration")
    else:
        lam = bratu_fold_parameter()
        sweep_b = rep_b.sweeps[k_star]
        sampled = [rep_b.mu0] + [r.mu_selected
                                 for r in rep_b.records[:k_star]
                                 if r.mu_selected is not None]
        unsampled = [r for r in sweep_b
                     if all(abs(r["mu"] - s) > 1e-9 for s in sampled)]
        near = min(unsampled, key=lambda r: abs(r["mu"] - lam))
        if admissible_everywhere(sweep_b):
            problems.append("fold range admissible everywhere at the "
                            "matched iteration")
        if not (math.isfinite(near["tau"]) and near["tau"] > 1.0):
            problems.append(f"tau={near['tau']:.3g} at mu={near['mu']:g} "
                            "nearest the fold, expected > 1")
    if problems:
        record(7, "estimator behavior", False, "; ".join(problems))
    else:
        record(7, "estimator behavior", True,
               f"post-enrichment drop ratio {worst_ratio:.2e} over {checked} "
               f"rows; pre-fold range admissible from sweep {k_star}, "
               f"fold range keeps tau={near['tau']:.2f} at mu={near['mu']:g}")


def test_criterion_8_derivative_consistency(chafee, bratu):
    rng = np.random.default_rng(20240818)
    worst_jac = 0.0
    for model in (chafee, bratu):
        lo, hi = model.default_interval()
        dim = model.mesh_size
        for _ in range(25):
            mu = rng.uniform(lo, hi)
            u = rng.normal(0.0, 0.5, dim)
            v = rng.normal(0.0, 1.0, dim)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (model.residual(u + h * v, mu)
                  - model.residual(u - h * v, mu)) / (2 * h)
            jv = model.jacobian(u, mu) @ v
            worst_jac = max(worst_jac, np.linalg.norm(fd - jv)
                            / max(np.linalg.norm(jv), 1e-30))

    worst_grad = 0.0
    dim = chafee.mesh_size
    for k in range(50):
        base = rng.normal(0.0, 0.5, dim)
        roots = [base + rng.normal(0.0, 0.3, dim) for _ in range(1 + k % 3)]
        metric = chafee.x_apply if k % 2 else None
        op = RootSet(metric, roots)
        u = base + rng.normal(0.0, 0.2, dim)
        grad = op.factor_and_gradient(u)[1]
        h = 1e-5
        fd = np.empty(dim)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd[j] = (op.factor_and_gradient(u + e)[0]
                     - op.factor_and_gradient(u - e)[0]) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd - grad)
                         / max(np.linalg.norm(grad), 1e-30))

    ok = worst_jac <= 1e-5 and worst_grad <= 1e-5
    record(8, "derivative consistency", ok,
           f"worst relative gap {worst_jac:.2e} over 50 Jacobian inputs and "
           f"{worst_grad:.2e} over 50 deflation-gradient inputs, both <= 1e-5")


def test_criterion_9_determinism(tmp_path):
    args = ["run", "--model", "chafee", "--strategy", "deflated",
            "--mesh", "41", "--train", "11", "--test", "11"]
    outs = []
    codes = []
    for name in ("a", "b"):
        out = tmp_path / name
        codes.append(cli_main(args + ["--out", str(out)]))
        outs.append(out)
    names_a = sorted(p.name for p in outs[0].glob("*.csv"))
    names_b = sorted(p.name for p in outs[1].glob("*.csv"))
    identical = bool(names_a) and names_a == names_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in names_a)
    ok = codes == [0, 0] and identical
    detail = (f"{len(names_a)} csv artifacts byte-identical across reruns"
              if ok else f"exit codes {codes}, files {names_a} vs {names_b}")
    record(9, "determinism", ok, detail)
