#!/usr/bin/env python3
"""Time two checkouts against each other in alternating pairs of bench runs.

    tools/bench_pairs.py <parent-checkout> <change-checkout>
        [--workloads oracle,offline,critical] [--seed 0] [--json PATH]

Each of the 10 pairs runs both checkouts' own `bench/run.py --workload W
--seed S` once per workload, the workloads in turn, at the bench's own run
length and untraced (its defaults); odd pairs run the parent first and even
pairs the change first, so drift in the host's load falls on both sides
alike.  Prints, per workload and per end-to-end metric of the result lines,
the median and quartiles of each side and `change_lower_in_pairs k/n`, the
pairs whose change run reads lower.  Exits 1 as soon as a run fails or
reports `correct` other than true, else 0.  `--json PATH` writes the
summaries and every pair's `run_s`.  Standard library only.
"""
import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from trace_counts import bench_result

PAIRS = 10
SIDES = ("parent", "change")


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summary(runs: list) -> dict:
    """Per metric: each side's spread and the pairs the change reads lower."""
    out = {}
    for name in runs[0][2]:
        sides = {side: [m[name]["value"] for _, s, m in runs if s == side] for side in SIDES}
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {**{side: spread(v) for side, v in sides.items()},
                     "change_lower_in_pairs": f"{lower}/{len(sides['parent'])}"}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", default="oracle,offline,critical")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads:
        p.error("need at least one workload")
    runs = {w: [] for w in workloads}  # (pair, side, metrics) in run order
    for i in range(1, PAIRS + 1):
        for w in workloads:
            for side in SIDES if i % 2 else SIDES[::-1]:
                try:
                    metrics = bench_result(checkouts[side], w, "--seed", str(args.seed))
                except RuntimeError as exc:
                    print(f"{w} pair {i} {side}: run failed: {exc}")
                    return 1
                runs[w].append((i, side, metrics))
    report = {w: summary(r) for w, r in runs.items()}
    for w, metrics in report.items():
        for name, s in metrics.items():
            print(f"{w} {name}: " + ", ".join(
                f"{side} {s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]"
                for side in SIDES) + f", change_lower_in_pairs {s['change_lower_in_pairs']}")
    if args.json:
        args.json.write_text(json.dumps({
            "command": f"python3 bench/run.py --workload <workload> --seed {args.seed}",
            "pairing": ("pair i runs parent then change for odd i, change then parent for "
                        f"even i; each round runs {', '.join(workloads)} in turn"),
            "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
            "workloads": {w: {"seed": args.seed, "summary": report[w],
                              "all_correct_zero_failed": True,
                              "runs_s": [[i, side, round(m["run_s"]["value"], 4)]
                                         for i, side, m in runs[w]]}
                          for w in workloads},
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
