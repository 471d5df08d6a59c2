"""Child process of one benchmark run; ``run.py`` starts it and reads its stdout.

Modes:
  setup    set up the workload, print the ready line and exit;
  run      set up, print the ready line, run untraced passes for --seconds
           and print the medians over passes;
  trace    set up, run one untraced and one traced pass, write the spans and
           print the per-layer metrics;
  kernels  print the mesh-scaling kernel metrics.

Set-up is everything before the ready line: imports, model construction,
grid generation and a BLAS warm-up.  The last stdout line is one JSON object.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve, solve_triangular, svdvals

import metrics
import workloads
from tracing import Tracer

def blas_warmup(n: int = 201) -> None:
    """Touch every LAPACK path the library uses, so no pass pays first-call costs."""
    a = np.random.default_rng(0).standard_normal((n, n))
    spd = a @ a.T + n * np.eye(n)
    np.linalg.solve(a, a[:, 0])
    svdvals(a)
    cho = cho_factor(spd, lower=True)
    cho_solve(cho, a[:, 0])
    solve_triangular(cho[0], a, lower=True)


def blas_info() -> dict:
    """Vendor, version and current thread count of every loaded OpenBLAS."""
    info = {"numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    names = [f"{prefix}get_num_threads{suffix}"
             for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
    for path in libs:
        lib = ctypes.CDLL(path)
        getter = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if getter is None:
            continue
        getter.restype = ctypes.c_int
        config = getattr(lib, getter.__name__.replace("num_threads", "config"))
        config.restype = ctypes.c_char_p
        info[path.rsplit("/", 1)[-1]] = {"threads": getter(), "config": config().decode()}
    return info


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info()}


def timed_pass(run_pass):
    w0, c0 = time.perf_counter(), time.process_time()
    outcome = run_pass()
    return time.perf_counter() - w0, time.process_time() - c0, outcome


def run(run_pass, seconds: float) -> dict:
    """Passes back to back; another starts only if a typical one still fits."""
    walls, cpus, outcomes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, cpu, outcome = timed_pass(run_pass)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
    return {
        "metrics": {"run_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "passes": [{"wall_s": w, "cpu_s": c} for w, c in zip(walls, cpus)],
        **_checks(outcomes),
    }


def trace(run_pass, run_id: str, spans_path: str) -> dict:
    untraced_s, _, first = timed_pass(run_pass)
    tracer = Tracer(run_id)
    with tracer.patched():
        traced_s, _, second = timed_pass(run_pass)
    tracer.write_csv(spans_path)
    checks = _checks([first, second])
    values = metrics.layer_metrics(tracer, untraced_s, traced_s)
    values["fail_frac"] = checks["failed"] / checks["attempted"]
    values.update(second.quality)
    return {"metrics": values, **checks}


def _checks(outcomes) -> dict:
    problems = sorted({p for o in outcomes for p in o.problems})
    return {"attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes), "problems": problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace", "kernels"))
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans", default="spans.csv")
    args = p.parse_args(argv)
    if args.mode == "kernels":
        import kernels
        result = {"metrics": kernels.measure(metrics.KERNEL_MESHES)}
    else:
        run_pass = workloads.prepare(args.workload, args.seed)
        blas_warmup()
        print(json.dumps({"ready": True}), flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = run(run_pass, args.seconds)
        else:
            result = trace(run_pass, f"{args.workload}-seed{args.seed}", args.spans)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
