"""Self-test of the benchmark on a tiny mesh and short grids.

    python3 bench/selftest.py

Checks that every declared metric is emitted with its unit, that no span's
self time exceeds its duration, that spans cover at least 95% of each traced
pass, that every patched binding is restored, and that the benchmark refuses
to run without the program's source tree.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import kernels  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(mesh=21, oracle_points=5, offline_train=7, critical_n_ref=2)
TINY_MESHES = {"timing": (11, 21, 31), "inf_sup": (11, 21, 31),
               "newton": (11, 21, 31), "roots": (11, 21, 31)}


def bindings() -> dict:
    """Every function bound in a bifrb module and every traced method."""
    out = {}
    for mod in tracing.bifrb_modules():
        for attr, value in vars(mod).items():
            if callable(value) and not isinstance(value, type):
                out[(mod.__name__, attr)] = value
    for layer, (cls_name, methods) in tracing.TRACED_METHODS.items():
        cls = getattr(sys.modules[f"bifrb.{layer}"], cls_name)
        for meth in methods:
            out[(cls_name, meth)] = cls.__dict__[meth]
    return out


class DeclaredMetrics(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key, spec in (("end_to_end", metrics.end_to_end()),
                          ("per_layer", metrics.per_layer())):
            got = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
            self.assertEqual(got, spec, key)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(metrics.WORKLOADS))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "critical",
                              "--seed", "1", "--seconds", "0", "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {name: unit for name, unit, _ in metrics.end_to_end()})
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_refuses_to_run_without_the_source_tree(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench")
        try:
            out = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle",
                                  "--seed", "0", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class TracedPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.before = bindings()
        cls.results = {}
        for name in metrics.WORKLOADS:
            spans = BENCH / "out" / f"selftest-spans-{name}.csv"
            spans.parent.mkdir(exist_ok=True)
            run_pass = workloads.prepare(name, 3, TINY)
            cls.results[name] = (worker.trace(run_pass, name, str(spans)), spans)
        cls.kernel_values = kernels.measure(TINY_MESHES)

    def test_every_per_layer_metric_is_emitted(self):
        declared = {name for name, _, _ in metrics.per_layer(TINY_MESHES)}
        for name, (result, _) in self.results.items():
            emitted = set(result["metrics"]) | set(self.kernel_values)
            self.assertEqual(emitted, declared, name)

    def test_all_six_layers_report_self_time(self):
        seen = {layer: 0.0 for layer in metrics.LAYERS}
        for result, _ in self.results.values():
            for layer in metrics.LAYERS:
                seen[layer] += result["metrics"][f"layer.{layer}.self_s"]
        self.assertTrue(all(t > 0 for t in seen.values()), seen)

    def test_self_time_never_exceeds_duration(self):
        for name, (_, spans) in self.results.items():
            with open(spans) as fh:
                rows = list(csv.DictReader(fh))
            self.assertTrue(rows, name)
            for row in rows:
                duration = float(row["end_s"]) - float(row["start_s"])
                self.assertLessEqual(float(row["self_s"]), duration + 1e-9, row)
                self.assertGreaterEqual(float(row["self_s"]), -1e-9, row)

    def test_spans_cover_the_traced_pass(self):
        for name, (result, _) in self.results.items():
            self.assertGreaterEqual(result["metrics"]["trace.coverage"], 0.95, name)

    def test_patched_bindings_are_restored(self):
        after = bindings()
        self.assertEqual(after.keys(), self.before.keys())
        changed = [k for k in after if after[k] is not self.before[k]]
        self.assertEqual(changed, [])


class Grids(unittest.TestCase):
    def test_seed_zero_is_equispaced_and_seeds_repeat(self):
        grid = workloads.jittered_grid(5.0, 15.0, 11, None)
        self.assertTrue(np.array_equal(grid, np.linspace(5.0, 15.0, 11)))
        a = workloads.jittered_grid(5.0, 15.0, 11, np.random.default_rng(7))
        b = workloads.jittered_grid(5.0, 15.0, 11, np.random.default_rng(7))
        self.assertTrue(np.array_equal(a, b))
        self.assertEqual((a[0], a[-1]), (5.0, 15.0))
        self.assertLessEqual(np.max(np.abs(a - grid)), 0.25 + 1e-12)


if __name__ == "__main__":
    unittest.main()
