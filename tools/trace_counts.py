#!/usr/bin/env python3
"""Check that two checkouts make the same traced calls on every bench workload.

    tools/trace_counts.py <parent-checkout> <change-checkout>

Runs each checkout's own `bench/run.py --workload W --seed 0 --seconds 0
--trace 1` for W in oracle, offline and critical, and compares every metric
of the two result lines whose unit is not a time (s or ms): call, iteration
and cause counts, ratios, basis sizes and errors.  `trace.coverage`, the
share of the traced wall time that spans cover, is a timing ratio and is
skipped.  Prints `<workload> <metric>: <parent> -> <change>` for each metric
that differs, and exits 1 if any does or a run fails or reports `correct`
other than true; otherwise exits 0.  Standard library only.
"""
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle", "offline", "critical")
TIMING_UNITS = ("s", "ms")
SKIPPED = ("trace.coverage",)


def bench_result(checkout: Path, workload: str, *args: str) -> dict:
    """{name: {"value", "unit"}} of one run of the checkout's own `bench/run.py
    --workload <workload> <args>`: the metrics of its last stdout line.
    Raises RuntimeError if the run fails or its result is not `correct`."""
    run = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"),
                          "--workload", workload, *args], capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {run.returncode}\n{run.stderr}")
    try:
        result = json.loads(run.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise RuntimeError(f"{checkout}: {workload} printed no result line ({exc!r})") from None
    if result.get("correct") is not True:
        raise RuntimeError(f"{checkout}: {workload} correct is {result.get('correct')!r}, "
                           f"failed {result.get('failed')!r}")
    return metrics


def differences(parent: dict, change: dict) -> list[str]:
    """`<metric>: <parent> -> <change>` for every compared metric that differs."""
    found = []
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name, {}), change.get(name, {})
        if name in SKIPPED or (a or b)["unit"] in TIMING_UNITS:
            continue
        if a != b:
            found.append(f"{name}: {a.get('value')!r} -> {b.get('value')!r}")
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: trace_counts.py <parent-checkout> <change-checkout>", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    differ = False
    for workload in WORKLOADS:
        traced = ("--seed", "0", "--seconds", "0", "--trace", "1")
        try:
            found = differences(bench_result(parent, workload, *traced),
                                bench_result(change, workload, *traced))
        except (RuntimeError, KeyError) as exc:
            print(f"{workload}: run failed: {exc}")
            return 1
        for line in found:
            print(f"{workload} {line}")
        differ = differ or bool(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
