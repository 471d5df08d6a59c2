"""Repository tools, run as the command lines they are."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DRIFT = TOOLS / "artifact_drift.py"


def drift(a, b, rtol="1e-4", *atol):
    return subprocess.run([sys.executable, str(DRIFT), str(a), str(b), rtol, *atol],
                          capture_output=True, text=True)


def test_artifact_drift_allows_numbers_to_move_within_rtol(tmp_path):
    a = tmp_path / "a"
    (a / "run").mkdir(parents=True)
    (a / "run" / "errors.csv").write_text("mu,branch,estimator,flag\n5,0,1.25e-3,\n6,1,2.5e-3,x\n")
    (a / "run" / "report.json").write_text('{"n_basis": 4, "errors": {"max": 0.5}, "status": "ok"}\n')
    (a / "stdout.txt").write_text("deflated: n_basis=4\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    same = drift(a, b)
    assert (same.returncode, same.stdout) == (0, "")

    (b / "run" / "errors.csv").write_text("mu,branch,estimator,flag\n5,0,1.25001e-3,\n6,1,2.5e-3,x\n")
    (b / "run" / "report.json").write_text('{"n_basis": 4, "errors": {"max": 0.500001}, "status": "ok"}\n')
    close = drift(a, b)
    assert close.returncode == 0
    assert "run/errors.csv: worst relative drift 8.000e-06" in close.stdout
    assert "run/report.json: worst relative drift 2.000e-06" in close.stdout
    assert drift(a, b, "1e-6").returncode == 1

    (b / "run" / "errors.csv").write_text("mu,branch,estimator,flag\n5,0,1.25e-3,\n")
    dropped = drift(a, b)
    assert dropped.returncode == 1
    assert "run/errors.csv: 3 rows against 2" in dropped.stdout


def test_artifact_drift_rejects_every_non_numeric_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    (a / "report.json").write_text('{"n_basis": 4, "status": "ok", "mus": [1.0, 2.0]}\n')
    (a / "errors.csv").write_text("mu,flag\n5,\n")
    (a / "stdout.txt").write_text("n_basis=4\n")
    for name, text in [("report.json", '{"n_basis": 5, "status": "ok", "mus": [1.0, 2.0]}\n'),
                       ("report.json", '{"n_basis": 4, "status": "no", "mus": [1.0, 2.0]}\n'),
                       ("report.json", '{"n_basis": 4, "status": "ok", "mus": [1.0]}\n'),
                       ("report.json", '{"n_basis": 4, "status": "ok"}\n'),
                       ("errors.csv", "mu,flags\n5,\n"),
                       ("errors.csv", "mu,flag\n5,x\n"),
                       ("stdout.txt", "n_basis=4 \n")]:
        shutil.rmtree(b, ignore_errors=True)
        shutil.copytree(a, b)
        (b / name).write_text(text)
        assert drift(a, b).returncode == 1, (name, text)
    (b / "stdout.txt").unlink()
    assert "stdout.txt: only in" in drift(a, b).stdout


def test_artifact_drift_compares_a_header_less_csv_as_numbers(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "basis.csv").write_text("0.5,1.25\n2,4\n")
    (b / "basis.csv").write_text("0.5000000005,1.25\n2,4\n")
    moved = drift(a, b, "1e-6")
    assert moved.returncode == 0
    assert "basis.csv: worst relative drift 1.000e-09, absolute 5.000e-10" in moved.stdout
    assert drift(a, b, "1e-10").returncode == 1
    # a first row with a word in it is a header, compared as text
    (b / "basis.csv").write_text("0.5,x\n2,4\n")
    assert "basis.csv: header differs" in drift(a, b).stdout


def test_artifact_drift_excuses_a_drift_within_the_absolute_floor(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "errors.csv").write_text("mu,error\n5,1e-20\n6,0.5\n")
    (b / "errors.csv").write_text("mu,error\n5,3e-20\n6,0.5\n")
    (a / "report.json").write_text('{"estimator": 1e-13, "max": 0.5}\n')
    (b / "report.json").write_text('{"estimator": 2e-13, "max": 0.5}\n')
    # without atol a drift between roundoff-level values fails; rtol still
    # bounds every pair farther apart than atol
    assert drift(a, b, "1e-6").returncode == 1
    floored = drift(a, b, "1e-6", "1e-9")
    assert floored.returncode == 0
    assert "errors.csv: worst relative drift 6.667e-01, absolute 2.000e-20" in floored.stdout
    assert "report.json: worst relative drift 5.000e-01, absolute 1.000e-13" in floored.stdout
    (b / "report.json").write_text('{"estimator": 1e-13, "max": 0.5001}\n')
    beyond = drift(a, b, "1e-6", "1e-9")
    assert beyond.returncode == 1
    assert "report.json: relative drift 2.000e-04 exceeds 1e-06 beyond atol 1e-09" in beyond.stdout


def test_artifact_drift_reports_the_drift_beyond_the_floor(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    # a roundoff pair moves by 100% relative, a real value by 1e-7
    (a / "errors.csv").write_text("mu,tau\n5,4e-7\n6,500\n")
    (b / "errors.csv").write_text("mu,tau\n5,0\n6,500.00005\n")
    floored = drift(a, b, "1e-6", "1e-6")
    assert floored.returncode == 0
    assert ("errors.csv: worst relative drift 1.000e+00, absolute 5.000e-05, "
            "beyond atol 1.000e-07") in floored.stdout
    # without atol no pair is excused, and the line names no floor
    plain = drift(a, b, "1.5")
    assert plain.returncode == 0
    assert "beyond atol" not in plain.stdout


def stub_checkout(root, metrics, log=None, correct=True):
    """A checkout whose bench/run.py logs its arguments and prints `metrics`
    as the result line of every workload.  A shared `log` gets each line
    prefixed with the checkout's name, so it shows the order of the runs."""
    (root / "bench").mkdir(parents=True)
    result = json.dumps({"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
                         "metrics": metrics})
    prefix = f"{root.name} " if log else ""
    (root / "bench" / "run.py").write_text(
        "import sys\n"
        f"with open({str(log or root / 'calls.txt')!r}, 'a') as f:\n"
        f"    f.write({prefix!r} + ' '.join(sys.argv[1:]) + '\\n')\n"
        "print('# environment {}')\n"
        f"print({result!r})\n")
    return root


def test_trace_counts_compares_every_metric_but_the_timings(tmp_path):
    metrics = {"nlsolve.newton.calls": {"value": 12, "unit": "count"},
               "max_delta": {"value": 4.8e-7, "unit": "norm"},
               "trace.run_s": {"value": 0.2, "unit": "s"},
               "kernel.residual_ms.m201": {"value": 0.01, "unit": "ms"},
               "trace.coverage": {"value": 0.97, "unit": "ratio"}}
    parent = stub_checkout(tmp_path / "parent", metrics)
    timings = {**metrics, "trace.run_s": {"value": 0.3, "unit": "s"},
               "kernel.residual_ms.m201": {"value": 0.02, "unit": "ms"},
               "trace.coverage": {"value": 0.5, "unit": "ratio"}}
    change = stub_checkout(tmp_path / "change", timings)
    same = subprocess.run([sys.executable, str(TOOLS / "trace_counts.py"), str(parent),
                           str(change)], capture_output=True, text=True)
    assert (same.returncode, same.stdout) == (0, "")
    assert (parent / "calls.txt").read_text().splitlines() == [
        f"--workload {w} --seed 0 --seconds 0 --trace 1" for w in ("oracle", "offline", "critical")]

    moved = stub_checkout(tmp_path / "moved", {**timings,
                                               "nlsolve.newton.calls": {"value": 13, "unit": "count"},
                                               "max_delta": {"value": 4.9e-7, "unit": "norm"}})
    differ = subprocess.run([sys.executable, str(TOOLS / "trace_counts.py"), str(parent),
                             str(moved)], capture_output=True, text=True)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [
        line for w in ("oracle", "offline", "critical")
        for line in (f"{w} max_delta: 4.8e-07 -> 4.9e-07", f"{w} nlsolve.newton.calls: 12 -> 13")]

    wrong = stub_checkout(tmp_path / "wrong", metrics, correct=False)
    refused = subprocess.run([sys.executable, str(TOOLS / "trace_counts.py"), str(parent),
                              str(wrong)], capture_output=True, text=True)
    assert refused.returncode == 1
    assert refused.stdout.startswith("oracle: run failed:") and "correct is False" in refused.stdout


def e2e(run_s, peak_rss_mb):
    return {"run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}


def bench_pairs(*args):
    return subprocess.run([sys.executable, str(TOOLS / "bench_pairs.py"), *map(str, args)],
                          capture_output=True, text=True)


def test_bench_pairs_alternates_the_sides_and_summarizes_every_metric(tmp_path):
    log = tmp_path / "runs.txt"
    parent = stub_checkout(tmp_path / "parent", e2e(0.3, 60.0), log)
    change = stub_checkout(tmp_path / "change", e2e(0.2, 61.0), log)
    out = tmp_path / "pairs.json"
    done = bench_pairs(parent, change, "--workloads", "critical,offline", "--seed", 1,
                       "--json", out)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        line for w in ("critical", "offline") for line in (
            f"{w} run_s: parent 0.3 [0.3, 0.3], change 0.2 [0.2, 0.2], "
            "change_lower_in_pairs 10/10",
            f"{w} peak_rss_mb: parent 60 [60, 60], change 61 [61, 61], "
            "change_lower_in_pairs 0/10")]
    # odd pairs run the parent first, even pairs the change; the workloads in turn;
    # the run length and tracing are each bench's own defaults
    order = [("parent", "change"), ("change", "parent")] * 5
    assert log.read_text().splitlines() == [
        f"{side} --workload {w} --seed 1"
        for sides in order for w in ("critical", "offline") for side in sides]
    record = json.loads(out.read_text())
    assert record["command"] == "python3 bench/run.py --workload <workload> --seed 1"
    critical = record["workloads"]["critical"]
    assert critical["seed"] == 1 and critical["all_correct_zero_failed"] is True
    assert critical["summary"]["run_s"] == {
        "parent": {"median": 0.3, "q1": 0.3, "q3": 0.3, "n": 10},
        "change": {"median": 0.2, "q1": 0.2, "q3": 0.2, "n": 10},
        "change_lower_in_pairs": "10/10"}
    assert critical["runs_s"] == [[i, side, {"parent": 0.3, "change": 0.2}[side]]
                                  for i, sides in enumerate(order, 1) for side in sides]


def test_bench_pairs_exits_one_on_a_failed_or_incorrect_run(tmp_path):
    parent = stub_checkout(tmp_path / "parent", e2e(0.3, 60.0))
    wrong = stub_checkout(tmp_path / "wrong", e2e(0.2, 60.0), correct=False)
    out = tmp_path / "pairs.json"
    refused = bench_pairs(parent, wrong, "--workloads", "oracle", "--json", out)
    assert refused.returncode == 1
    assert refused.stdout.startswith("oracle pair 1 change: run failed:")
    assert "correct is False" in refused.stdout and not out.exists()

    broken = stub_checkout(tmp_path / "broken", e2e(0.2, 60.0))
    (broken / "bench" / "run.py").write_text("import sys\nsys.exit(1)\n")
    failed = bench_pairs(broken, parent, "--workloads", "oracle")
    assert failed.returncode == 1
    assert failed.stdout.startswith("oracle pair 1 parent: run failed:")
