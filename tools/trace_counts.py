#!/usr/bin/env python3
"""Check that two checkouts make the same traced calls on every bench workload.

    tools/trace_counts.py <parent-checkout> <change-checkout>

Runs each checkout's own `bench/run.py --workload W --seed 0 --seconds 0
--trace 1` for W in oracle, offline and critical, and compares every metric
of the two result lines whose unit is not a time (s or ms): call, iteration
and cause counts, ratios, basis sizes and errors.  `trace.coverage`, the
share of the traced wall time that spans cover, is a timing ratio and is
skipped.  Prints `<workload> <metric>: <parent> -> <change>` for each metric
that differs, and exits 1 if any does or a run fails; otherwise exits 0.
Standard library only.
"""
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle", "offline", "critical")
TIMING_UNITS = ("s", "ms")
SKIPPED = ("trace.coverage",)


def traced_metrics(checkout: Path, workload: str) -> dict:
    """{name: {"value", "unit"}} of one traced run: its last stdout line."""
    run = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"),
                          "--workload", workload, "--seed", "0", "--seconds", "0",
                          "--trace", "1"], capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {run.returncode}\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])["metrics"]


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
        try:
            found = differences(traced_metrics(parent, workload), traced_metrics(change, workload))
        except (RuntimeError, ValueError, KeyError, IndexError) as exc:
            print(f"{workload}: run failed: {exc}")
            return 1
        for line in found:
            print(f"{workload} {line}")
        differ = differ or bool(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
