#!/usr/bin/env python3
"""Compare two artifact trees, allowing their numbers a relative drift.

    tools/artifact_drift.py <tree-a> <tree-b> <rtol>

Exits 1 when the trees differ in anything but numbers: the file sets, a
CSV's header, row count or any non-numeric cell, a JSON's keys, list lengths
or non-float values, or the bytes of any other file (stdout.txt included).
It also exits 1 when a numeric CSV cell or a JSON float drifts by more than
rtol, relative to the larger magnitude.  Otherwise it prints the worst
relative drift of every file whose bytes differ and exits 0.  Standard
library only, so it runs on any two output trees of tools/cli_artifacts.sh.
"""
import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """A difference that no tolerance excuses."""


def drift(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_drift(a: Path, b: Path) -> float:
    rows_a, rows_b = ([*csv.reader(p.open(newline=""))] for p in (a, b))
    if rows_a[:1] != rows_b[:1]:
        raise Mismatch("header differs")
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a)} rows against {len(rows_b)}")
    worst = 0.0
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            raise Mismatch(f"row {i}: {len(row_a)} cells against {len(row_b)}")
        for cell_a, cell_b in zip(row_a, row_b):
            x, y = number(cell_a), number(cell_b)
            if x is None or y is None:
                if cell_a != cell_b:
                    raise Mismatch(f"row {i}: {cell_a!r} against {cell_b!r}")
            else:
                worst = max(worst, drift(x, y))
    return worst


def json_drift(a, b, where: str = "$") -> float:
    if isinstance(a, float) and isinstance(b, float):
        return drift(a, b)
    if type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} against {b!r}")
    if isinstance(a, dict):
        if sorted(a) != sorted(b):
            raise Mismatch(f"{where}: keys {sorted(a)} against {sorted(b)}")
        return max((json_drift(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: length {len(a)} against {len(b)}")
        return max((json_drift(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if a != b:
        raise Mismatch(f"{where}: {a!r} against {b!r}")
    return 0.0


def file_drift(a: Path, b: Path) -> float:
    if a.suffix == ".csv":
        return csv_drift(a, b)
    if a.suffix == ".json":
        return json_drift(json.loads(a.read_text()), json.loads(b.read_text()))
    raise Mismatch("bytes differ")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("rtol", type=float)
    args = parser.parse_args(argv)
    trees = (args.tree_a, args.tree_b)
    for tree in trees:
        if not tree.is_dir():
            parser.error(f"{tree} is not a directory")
    files_a, files_b = ({p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}
                        for tree in trees)
    failed = False
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {args.tree_a if rel in files_a else args.tree_b}")
        failed = True
    for rel in sorted(files_a & files_b):
        a, b = args.tree_a / rel, args.tree_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        try:
            worst = file_drift(a, b)
            if not worst <= args.rtol:
                raise Mismatch(f"relative drift {worst:.3e} exceeds {args.rtol:g}")
        except Mismatch as exc:
            print(f"{rel}: {exc}")
            failed = True
        else:
            print(f"{rel}: worst relative drift {worst:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
