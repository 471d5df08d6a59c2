"""Names, units and meaning of every metric the benchmark reports.

``end_to_end()`` and ``per_layer()`` are the lists that ``BENCHMARK.json``
declares; ``layer_metrics()`` turns one traced workload pass into the
per-layer values.  Standard library only, so the parent process of a run
never imports numpy.
"""
from __future__ import annotations

WORKLOADS = ("oracle", "offline", "critical")
LAYERS = ("model", "nlsolve", "rom", "estimators", "greedy", "analysis")
SOLVERS = ("nlsolve.newton", "nlsolve.deflated_newton",
           "rom.reduced_newton", "rom.reduced_deflated_newton")
SWEEPS = ("estimators.estimator_sweep", "estimators.deflated_estimator_sweep",
          "estimators.beta_sweep")
GREEDY = ("greedy.vanilla_greedy", "greedy.adaptive_greedy", "greedy.deflated_greedy")

# Every SolveResult.cause of bifrb.nlsolve, "converged" for cause None, and
# "other" for a cause this list does not know yet.
CAUSES = ("converged", "max_iter", "residual_growth", "divergence_norm",
          "nonfinite_residual", "nonfinite_step", "singular_jacobian",
          "deflation_stall", "deflation_singular_guess",
          "converged_to_known_root", "other")

# Meshes of the kernel section.  The dense inf_sup at 3201 takes tens of
# seconds, so it is timed up to 1601; Newton from the default guess runs up to
# 1601, where the chafee solve is known to stop at max_iter; root discovery
# runs at 201, 401 and 801, where bratu at mu = 1 is known to lose a root.
KERNEL_MESHES = {
    "timing": (201, 801, 3201),
    "inf_sup": (201, 801, 1601),
    "newton": (201, 801, 1601),
    "roots": (201, 401, 801),
}
TIMED_KERNELS = ("residual", "jacobian", "newton_step", "reduced_newton_step")

QUALITY = (("fail_frac", "ratio", "lower"),
           ("basis_n", "count", "lower"),
           ("max_delta", "norm", "lower"),
           ("mu_bif_err.chafee", "mu", "lower"),
           ("mu_bif_err.bratu", "mu", "lower"))


def end_to_end() -> list[tuple[str, str, str]]:
    return [("run_s", "s", "lower"),
            ("cpu_s", "s", "lower"),
            ("peak_rss_mb", "MB", "lower"),
            ("setup_s", "s", "lower")]


def kernel_metrics(meshes: dict = KERNEL_MESHES) -> list[tuple[str, str, str]]:
    out = [(f"kernel.{k}_ms.m{m}", "ms", "lower")
           for k in TIMED_KERNELS for m in meshes["timing"]]
    out += [(f"kernel.inf_sup_ms.m{m}", "ms", "lower") for m in meshes["inf_sup"]]
    for model in ("chafee", "bratu"):
        out += [(f"kernel.newton_converged.{model}.m{m}", "flag", "higher")
                for m in meshes["newton"]]
        out += [(f"kernel.newton_iters.{model}.m{m}", "count", "lower")
                for m in meshes["newton"]]
    out += [(f"kernel.bratu_roots.m{m}", "count", "higher") for m in meshes["roots"]]
    return out


def per_layer(meshes: dict = KERNEL_MESHES) -> list[tuple[str, str, str]]:
    out = []
    for name in ("model.residual", "model.jacobian"):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [("nlsolve.newton.calls", "count", "lower"),
            ("nlsolve.newton.iters", "count", "lower"),
            ("nlsolve.newton.self_s", "s", "lower")]
    out += _deflated("nlsolve.deflated_newton")
    out += [(f"nlsolve.runs.{c}", "count", "lower") for c in CAUSES]
    for name in ("rom.reduced_residual", "rom.reduced_jacobian"):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [("rom.reduced_newton.calls", "count", "lower"),
            ("rom.reduced_newton.iters", "count", "lower")]
    out += _deflated("rom.reduced_deflated_newton")
    out += [(f"rom.runs.{c}", "count", "lower") for c in CAUSES]
    out += [("rom.enrich.calls", "count", "lower"),
            ("rom.enrich.accept_frac", "ratio", "higher")]
    for name in ("estimators.inf_sup", "estimators.nonlinear_estimate"):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [("estimators.sweep.calls", "count", "lower"),
            ("estimators.sweep.points", "count", "lower"),
            ("greedy.iterations", "count", "lower"),
            ("greedy.train_points", "count", "lower"),
            ("analysis.solution_ensemble.self_s", "s", "lower")]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.run_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.coverage", "ratio", "higher"),
            ("trace.spans", "count", "lower")]
    out += list(QUALITY)
    return out + kernel_metrics(meshes)


def _deflated(name: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.calls", "count", "lower"),
            (f"{name}.iters", "count", "lower"),
            (f"{name}.iters_failed", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.useful_frac", "ratio", "higher")]


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer values of one traced pass (quality and kernels come elsewhere).

    ``useful_frac`` is the share of a deflated solver's iterations spent in
    runs that converged to a new root (0 when it ran no iterations).
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in ("model.residual", "model.jacobian", "rom.reduced_residual",
                 "rom.reduced_jacobian", "estimators.inf_sup",
                 "estimators.nonlinear_estimate"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["nlsolve.newton.calls"] = calls["nlsolve.newton"]
    out["nlsolve.newton.iters"] = counts["nlsolve.newton"]["iters"]
    out["nlsolve.newton.self_s"] = self_s["nlsolve.newton"]
    out["rom.reduced_newton.calls"] = calls["rom.reduced_newton"]
    out["rom.reduced_newton.iters"] = counts["rom.reduced_newton"]["iters"]
    for name in ("nlsolve.deflated_newton", "rom.reduced_deflated_newton"):
        c = counts[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.iters"] = c["iters"]
        out[f"{name}.iters_failed"] = c["iters_failed"]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.useful_frac"] = c["iters_converged"] / c["iters"] if c["iters"] else 0.0
    for layer in ("nlsolve", "rom"):
        runs = counts[f"{layer}.runs"]
        for cause in CAUSES[:-1]:
            out[f"{layer}.runs.{cause}"] = runs[cause]
        out[f"{layer}.runs.other"] = sum(n for k, n in runs.items() if k not in CAUSES)
    enrich = calls["rom.enrich"]
    out["rom.enrich.calls"] = enrich
    out["rom.enrich.accept_frac"] = counts["rom.enrich"]["accepted"] / enrich if enrich else 0.0
    out["estimators.sweep.calls"] = sum(calls[n] for n in SWEEPS)
    out["estimators.sweep.points"] = sum(counts[n]["points"] for n in SWEEPS)
    out["greedy.iterations"] = sum(counts[n]["iterations"] for n in GREEDY)
    out["greedy.train_points"] = sum(counts[n]["train_points"] for n in GREEDY)
    out["analysis.solution_ensemble.self_s"] = self_s["analysis.solution_ensemble"]
    for layer, t in tracer.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = t
    out["trace.run_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.coverage"] = tracer.root_time() / traced_s
    out["trace.spans"] = len(tracer.spans)
    return out
