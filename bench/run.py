"""Benchmark of bifrb: one run of one workload, reported as one JSON line.

    python3 bench/run.py --workload oracle --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): ``oracle`` (full-order solution ensembles on
both models), ``offline`` (deflated greedy on chafee) and ``critical``
(adaptive greedy on both models).  The seed jitters the parameter grids.

``--trace 0`` reports the end-to-end metrics of untraced passes repeated
within ``--seconds`` (at least one), as medians over passes, in a child
process with BLAS pinned to one thread.  ``setup_s`` is the median time from process start
to the first timed operation over SETUP_PROBES fresh processes, half started
before the measuring process and half after it, plus the measuring one.  ``--trace 1`` reports the per-layer metrics of one traced
pass, the tracing overhead against one untraced pass, and the mesh-scaling
kernel section.

The program is imported from ``src/`` of the checkout this file lives in.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the environment block is printed before it, and the run's details go to
``bench/out/<workload>-trace<0|1>.json`` (spans to ``bench/out/spans-<workload>.csv``).
Exit status 1 means the run failed, 2 a usage error or a missing source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


class Children:
    """Worker processes of one run, all killed and reaped on exit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.procs: list[subprocess.Popen] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def _left(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {TIME_LIMIT_S:.0f} s")
        return left

    def start(self, *args: str) -> tuple[subprocess.Popen, float]:
        t0 = time.perf_counter()
        # Unbuffered, so reading the ready line leaves the rest in the pipe.
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, bufsize=0)
        self.procs.append(proc)
        return proc, t0

    def ready(self, proc: subprocess.Popen, t0: float) -> float:
        """Seconds from process start to its ready line."""
        readable, _, _ = select.select([proc.stdout], [], [], self._left())
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - t0
        if line.strip() != b'{"ready": true}':
            proc.kill()
            raise BenchError(f"worker did not get ready (exit {proc.wait()})")
        return elapsed

    def probe(self, common: list[str]) -> float:
        """Set-up time of one fresh process that exits at its ready line."""
        proc, t0 = self.start("setup", *common)
        elapsed = self.ready(proc, t0)
        try:
            status = proc.wait(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {TIME_LIMIT_S:.0f} s") from None
        if status != 0:
            raise BenchError(f"set-up probe exited with status {status}")
        return elapsed

    def result(self, proc: subprocess.Popen) -> dict:
        try:
            out, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"run exceeded {TIME_LIMIT_S:.0f} s") from None
        lines = out.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with status {proc.returncode}")
        return json.loads(lines[-1])


def measure(args) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    with Children(time.perf_counter() + TIME_LIMIT_S) as kids:
        if args.trace:
            spans = OUT / f"spans-{args.workload}.csv"
            proc, t0 = kids.start("trace", *common, "--spans", str(spans))
            kids.ready(proc, t0)
            result = kids.result(proc)
            proc, _ = kids.start("kernels")
            result["metrics"].update(kids.result(proc)["metrics"])
            return result
        # Half the set-up probes run before the measuring process and half
        # after it, so their median spans the whole run.
        setups = [kids.probe(common) for _ in range(SETUP_PROBES // 2)]
        proc, t0 = kids.start("run", *common, "--seconds", str(args.seconds))
        setups.append(kids.ready(proc, t0))
        result = kids.result(proc)
        setups += [kids.probe(common) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setups"] = setups
        return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bifrb" / "__init__.py").is_file():
        print(f"error: no bifrb source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn a termination request into an exit that still reaps the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = metrics.per_layer() if args.trace else metrics.end_to_end()
    units = {name: unit for name, unit, _ in spec}
    values = result["metrics"]
    if set(values) != set(units):
        print(f"error: metrics missing {sorted(set(units) - set(values))}, "
              f"undeclared {sorted(set(values) - set(units))}", file=sys.stderr)
        return 1
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "loadavg_before": load_before, "loadavg_after": os.getloadavg(), **result.pop("env")}
    detail = {"args": vars(args), "environment": env, **result}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("# environment " + json.dumps(env))
    for problem in result["problems"]:
        print(f"# failed check: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name, _, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
