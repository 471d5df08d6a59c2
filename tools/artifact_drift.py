#!/usr/bin/env python3
"""Compare two artifact trees, allowing their numbers a relative drift.

    tools/artifact_drift.py <tree-a> <tree-b> <rtol> [<atol>]

Exits 1 when the trees differ in anything but numbers: the file sets, a
CSV's header, row count or any non-numeric cell, a JSON's keys, list lengths
or non-float values, or the bytes of any other file (stdout.txt included).
A CSV whose first row is all numbers (np.savetxt writes no header) has that
row compared as numbers.  It also exits 1 when a numeric CSV cell or a JSON
float a, b drifts by |a - b| > max(rtol * max(|a|, |b|), atol); atol
defaults to 0, so the drift is then purely relative.  Otherwise it prints
the worst relative and absolute drift of every file whose bytes differ and
exits 0; with atol > 0 it also prints the worst relative drift beyond atol,
the one the gate judged.
Standard library only, so it runs on any two output trees of
tools/cli_artifacts.sh.
"""
import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """A difference that no tolerance excuses."""


class Drift:
    """The worst drifts between the paired numbers of one file."""

    def __init__(self, atol: float):
        self.atol = atol
        self.relative = self.absolute = 0.0
        self.beyond_atol = 0.0  # worst relative drift of a pair farther apart than atol

    def add(self, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if math.isfinite(a) and math.isfinite(b):
            diff = abs(a - b)
            rel = diff / max(abs(a), abs(b))
        else:
            diff = rel = math.inf
        self.relative = max(self.relative, rel)
        self.absolute = max(self.absolute, diff)
        if not diff <= self.atol:
            self.beyond_atol = max(self.beyond_atol, rel)


def number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def numeric(row: list) -> bool:
    return bool(row) and all(number(cell) is not None for cell in row)


def csv_drift(a: Path, b: Path, found: Drift) -> None:
    rows_a, rows_b = ([*csv.reader(p.open(newline=""))] for p in (a, b))
    if rows_a[:1] != rows_b[:1] and not all(map(numeric, rows_a[:1] + rows_b[:1])):
        raise Mismatch("header differs")
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a)} rows against {len(rows_b)}")
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            raise Mismatch(f"row {i}: {len(row_a)} cells against {len(row_b)}")
        for cell_a, cell_b in zip(row_a, row_b):
            x, y = number(cell_a), number(cell_b)
            if x is None or y is None:
                if cell_a != cell_b:
                    raise Mismatch(f"row {i}: {cell_a!r} against {cell_b!r}")
            else:
                found.add(x, y)


def json_drift(a, b, found: Drift, where: str = "$") -> None:
    if isinstance(a, float) and isinstance(b, float):
        found.add(a, b)
        return
    if type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} against {b!r}")
    if isinstance(a, dict):
        if sorted(a) != sorted(b):
            raise Mismatch(f"{where}: keys {sorted(a)} against {sorted(b)}")
        for k in a:
            json_drift(a[k], b[k], found, f"{where}.{k}")
    elif isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: length {len(a)} against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            json_drift(x, y, found, f"{where}[{i}]")
    elif a != b:
        raise Mismatch(f"{where}: {a!r} against {b!r}")


def file_drift(a: Path, b: Path, atol: float) -> Drift:
    found = Drift(atol)
    if a.suffix == ".csv":
        csv_drift(a, b, found)
    elif a.suffix == ".json":
        json_drift(json.loads(a.read_text()), json.loads(b.read_text()), found)
    else:
        raise Mismatch("bytes differ")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("rtol", type=float)
    parser.add_argument("atol", type=float, nargs="?", default=0.0)
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
            found = file_drift(a, b, args.atol)
            if not found.beyond_atol <= args.rtol:
                raise Mismatch(f"relative drift {found.beyond_atol:.3e} exceeds {args.rtol:g}"
                               + (f" beyond atol {args.atol:g}" if args.atol else ""))
        except Mismatch as exc:
            print(f"{rel}: {exc}")
            failed = True
        else:
            print(f"{rel}: worst relative drift {found.relative:.3e}, "
                  f"absolute {found.absolute:.3e}"
                  + (f", beyond atol {found.beyond_atol:.3e}" if args.atol else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
