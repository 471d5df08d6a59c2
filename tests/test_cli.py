"""End-to-end command-line runs on desk-size meshes."""
import json
import os

import numpy as np
import pytest

from bifrb.analysis import solution_ensemble
from bifrb.cli import RunConfig, main
from bifrb.estimators import EstimatorKind
from bifrb.greedy import AdaptiveConfig, GreedyConfig
from bifrb.model import make_model
from bifrb.nlsolve import NewtonConfig
from bifrb.pod import pod_basis
from bifrb.rom import BasisMatrix

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

FAST = ["--mesh", "41", "--train", "11", "--test", "11"]
NON_FINITE_INTERVAL = "train grid: parameter interval must be finite"


def run_cli(argv):
    return main(argv)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as f:
        return json.load(f)


def test_run_config_round_trip():
    cfg = RunConfig(model_kind="bratu", train_size=13)
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_run_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config field"):
        RunConfig.from_dict({"mesh": 33})


def test_validate_collects_all_problems():
    cfg = RunConfig(train_size=1, tol=-1.0, strategy="magic")
    problems = cfg.validate()
    assert len(problems) == 3
    assert any("train grid" in p for p in problems)
    assert any("tol" in p for p in problems)
    assert any("strategy" in p for p in problems)


def test_bad_flag_value_exits_one(tmp_path, capsys):
    code = run_cli(["diagram", "--train", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "train grid: needs at least 2 points (got 1)" in capsys.readouterr().err


def test_test_grid_size_message_names_one_grid(tmp_path, capsys):
    assert run_cli(["run", "--test", "0", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "test grid: needs at least 2 points (got 0)" in err and "equispaced" not in err


def test_half_open_interval_exits_one(tmp_path, capsys):
    code = run_cli(["diagram", "--mu-min", "5.0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "must be given together" in capsys.readouterr().err


def test_inverted_interval_exits_one(tmp_path, capsys):
    code = run_cli(["diagram", "--mu-min", "3.0", "--mu-max", "2.0",
                    "--out", str(tmp_path / "o")])
    assert code == 1
    assert "lower < upper" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, problem", [
    # the ids keep the case numbers from before two cases were deleted, and
    # three of them name the rule as the CLI used to word it
    pytest.param("run", ["--tol", "inf"], "tol must be positive and finite",
                 id="run-flags2-tol must be positive and finite"),
    pytest.param("run", ["--newton-tol", "inf"], "newton_tol must be positive and finite",
                 id="run-flags3-newton_tol must be positive and finite"),
    pytest.param("run", ["--bif-tol", "inf"], "bif_tol must be positive and finite",
                 id="run-flags4-bif_tol must be positive and finite"),
    pytest.param("run", ["--mu-min", "0", "--mu-max", "inf"], NON_FINITE_INTERVAL,
                 id="run-flags5-mu_min and mu_max must be finite"),
    pytest.param("run", ["--mu-min=-inf", "--mu-max", "1"], NON_FINITE_INTERVAL,
                 id="run-flags6-mu_min and mu_max must be finite"),
    pytest.param("diagram", ["--mu-min", "0", "--mu-max", "inf"], NON_FINITE_INTERVAL,
                 id="diagram-flags7-mu_min and mu_max must be finite"),
    # finite ends whose width upper - lower overflows
    pytest.param("run", ["--mu-min=-1.7e308", "--mu-max", "1.7e308"], NON_FINITE_INTERVAL,
                 id=f"run-flags8-{NON_FINITE_INTERVAL}"),
    pytest.param("diagram", ["--mu-min=-1.7e308", "--mu-max", "1.7e308"], NON_FINITE_INTERVAL,
                 id=f"diagram-flags9-{NON_FINITE_INTERVAL}"),
    pytest.param("compare", ["--strategies", "vanilla,deflated", "--mu-min=-1.7e308",
                             "--mu-max", "1.7e308"], NON_FINITE_INTERVAL,
                 id=f"compare-flags10-{NON_FINITE_INTERVAL}"),
])
def test_non_finite_settings_exit_one(tmp_path, capsys, command, flags, problem):
    # an infinite tolerance would certify a wrong diagram, and an infinite
    # interval has no grid
    out = tmp_path / "o"
    code = run_cli([command, "--model", "chafee", *flags] + FAST + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error: {problem}" in err
    assert "aborted" not in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--mesh", "abc"],
    ["run", "--model", "foo"],
    ["run", "--no-such-flag"],
    [],
    ["run", "--r", "2"],
    ["run", "--sigma", "1"],
])
def test_malformed_command_line_exits_one(argv, capsys):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--help"])
    assert exc.value.code == 0
    assert "--strategy" in capsys.readouterr().out


@pytest.mark.parametrize("data", [{"mesh": 41}, {"r": 2.0}, {"sigma": 1.0}],
                         ids=lambda data: next(iter(data)))
def test_unknown_config_field_exits_one(tmp_path, capsys, data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code = run_cli(["diagram", "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown config field {next(iter(data))!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [
    {"tol": "1e-3"}, {"mesh_size": "201"}, {"newton_tol": None}, {"train_size": 5.5},
    {"n_max": 2.5}, {"mesh_size": 21.7}, {"n_max": True}, {"model_kind": 3},
], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_config_value_of_the_wrong_type_exits_one(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mesh_size": 41, "test_size": 5, **bad}))
    out = tmp_path / "o"
    assert run_cli(["diagram", "--config", str(cfg_path), "--out", str(out)]) == 1
    name = next(iter(bad))
    assert f"config error: config field {name!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, kind", [("[]", "list"), ('"chafee"', "str"),
                                        ("null", "NoneType"), ("3", "int")])
def test_config_file_that_is_not_an_object_exits_one(tmp_path, capsys, text, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli(["diagram", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file must hold a JSON object (got {kind})")
    assert "Traceback" not in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = run_cli(["diagram", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model_kind": "bratu", "mesh_size": 41,
                                    "test_size": 5, "tol": 0.5}))
    out = tmp_path / "out"
    code = run_cli(["diagram", "--config", str(cfg_path), "--test", "7",
                    "--out", str(out)])
    assert code == 0
    config = read_report(out)["config"]
    assert config["test_size"] == 7  # flag wins
    assert config["tol"] == 0.5  # config file survives where no flag given
    assert config["model_kind"] == "bratu"


def test_diagram_command_labels_branches(tmp_path):
    for mesh in ("41", "2"):  # any positive mesh size runs
        out = tmp_path / mesh
        code = run_cli(["diagram", "--model", "chafee"] + FAST + ["--mesh", mesh, "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["branches"] == [0, 1, 2]
        lines = (out / "diagram.csv").read_text().splitlines()
        assert lines[0] == "mu,branch,value"
        assert len(lines) == report["n_points"] + 1


def test_deflated_run_writes_complete_manifest(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", "--model", "chafee", "--strategy", "deflated"]
                   + FAST + ["--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["report"]["status"] == "tolerance_met"
    assert report["deflated_test_sweep"] is True
    assert report["n_basis"] >= 2
    assert report["errors"]["max_unflagged_error"] <= 1e-3
    for name in ("basis.csv", "basis.json", "diagram.csv", "errors.csv"):
        assert (out / name).is_file()
    iter_files = sorted(p.name for p in out.glob("estimators_iter_*.csv"))
    assert len(iter_files) == report["report"]["n_iterations"]
    head = (out / iter_files[0]).read_text().splitlines()[0]
    assert head == "mu,branch,delta,beta,tau,valid"
    head = (out / "errors.csv").read_text().splitlines()[0]
    assert head.startswith("mu,branch,reduced_error")


def test_rerun_is_byte_identical(tmp_path):
    args = ["run", "--model", "chafee", "--strategy", "deflated"] + FAST
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    assert names1 == sorted(p.name for p in out2.iterdir())
    for name in names1:
        if name == "report.json":
            # identical except for the differing out_dir setting itself
            r1, r2 = read_report(out1), read_report(out2)
            r1["config"].pop("out_dir"), r2["config"].pop("out_dir")
            assert r1 == r2
        else:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_aborts_with_failure_record(tmp_path, capsys):
    out = tmp_path / "out"
    # below the pitchfork no snapshot can initialize a basis
    code = run_cli(["run", "--model", "chafee", "--mu-min", "5", "--mu-max", "8"]
                   + FAST + ["--out", str(out)])
    assert code == 2
    assert "aborted" in capsys.readouterr().err
    report = read_report(out)
    assert "failure" in report
    assert report["config"]["mu_min"] == 5.0


def test_uncertified_run_exits_two(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", "--model", "bratu", "--strategy", "vanilla",
                    "--nmax", "1", "--tol", "1e-12"] + FAST + ["--out", str(out)])
    assert code == 2
    assert read_report(out)["report"]["status"] == "n_max_reached"


def test_error_sweep_scores_saved_basis(tmp_path):
    build = tmp_path / "build"
    args = ["run", "--model", "chafee", "--strategy", "deflated"] + FAST
    assert run_cli(args + ["--out", str(build)]) == 0
    score = tmp_path / "score"
    code = run_cli(["error-sweep", "--basis-dir", str(build),
                    "--strategy", "deflated"] + FAST + ["--out", str(score)])
    assert code == 0
    report = read_report(score)
    assert report["basis_dir"] == str(build)
    assert report["errors"]["max_unflagged_error"] <= 1e-3
    assert (score / "errors.csv").is_file()


def test_error_sweep_scores_a_saved_empty_basis(tmp_path):
    # below the pitchfork every snapshot is zero, so the pod basis is empty
    build, score = tmp_path / "build", tmp_path / "score"
    grid = ["--mu-min", "5", "--mu-max", "9", "--test", "5"]
    assert run_cli(["run", "--model", "chafee", "--strategy", "pod", "--train", "5",
                    "--mesh", "21"] + grid + ["--out", str(build)]) == 0
    assert read_report(build)["n_basis"] == 0
    assert run_cli(["error-sweep", "--basis-dir", str(build)] + grid
                   + ["--out", str(score)]) == 0
    assert (score / "errors.csv").read_bytes() == (build / "errors.csv").read_bytes()


@pytest.mark.parametrize("strategy", ["vanilla", "adaptive", "deflated"])
def test_error_sweep_scores_a_basis_as_its_own_run_did(tmp_path, strategy):
    # basis.json records the strategy, so error-sweep needs no --strategy to
    # pick the run's single-seed or deflated test sweep
    build, score = tmp_path / "build", tmp_path / "score"
    run_cli(["run", "--model", "chafee", "--strategy", strategy] + FAST + ["--out", str(build)])
    assert json.loads((build / "basis.json").read_text())["strategy"] == strategy
    assert run_cli(["error-sweep", "--basis-dir", str(build)] + FAST
                   + ["--out", str(score)]) == 0
    assert (score / "errors.csv").read_bytes() == (build / "errors.csv").read_bytes()
    assert read_report(score)["config"]["strategy"] == strategy
    assert read_report(score)["deflated_test_sweep"] == (strategy == "deflated")


def test_error_sweep_falls_back_to_the_configured_strategy_and_rejects_an_unknown_one(
        tmp_path, capsys):
    basis = BasisMatrix(make_model("chafee", 41))
    basis.enrich(np.sin(np.pi * basis.model.nodes), 12.0)
    basis.save(tmp_path / "basis.csv")
    assert "strategy" not in json.loads((tmp_path / "basis.json").read_text())
    for flags, deflated in (([], True), (["--strategy", "vanilla"], False)):
        out = tmp_path / f"score{len(flags)}"
        assert run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5"]
                       + flags + ["--out", str(out)]) == 0
        assert read_report(out)["deflated_test_sweep"] is deflated
    meta = json.loads((tmp_path / "basis.json").read_text())
    (tmp_path / "basis.json").write_text(json.dumps({**meta, "strategy": "magic"}))
    assert run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5",
                    "--out", str(tmp_path / "bad")]) == 1
    assert "cannot load basis" in capsys.readouterr().err


def test_error_sweep_echoes_the_model_of_the_loaded_basis(tmp_path):
    bratu = make_model("bratu", 41)
    basis = BasisMatrix(bratu)
    basis.enrich(bratu.interpolate(lambda x: np.sin(np.pi * x)))
    basis.save(tmp_path / "basis.csv")
    score = tmp_path / "score"
    assert run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5",
                    "--out", str(score)]) == 0
    config = read_report(score)["config"]
    assert (config["model_kind"], config["mesh_size"]) == ("bratu", 41)


@pytest.mark.parametrize("given", [["--model", "bratu"], ["--mesh", "81"],
                                   {"model_kind": "bratu"}, {"mesh_size": 81}])
def test_error_sweep_rejects_a_model_or_mesh_the_basis_does_not_have(
        tmp_path, capsys, given):
    chafee = make_model("chafee", 41)
    basis = BasisMatrix(chafee)
    basis.enrich(chafee.default_guess)
    basis.save(tmp_path / "basis.csv")
    if isinstance(given, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(given))
        given = ["--config", str(tmp_path / "cfg.json")]
    score = tmp_path / "score"
    code = run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5",
                    "--out", str(score)] + given)
    assert code == 1
    assert "config error:" in capsys.readouterr().err
    assert not score.exists()
    # the values of the basis itself are accepted
    assert run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5",
                    "--model", "chafee", "--mesh", "41", "--out", str(score)]) == 0


@pytest.mark.parametrize("key, value, problem", [
    ("mu_train", [12.0], "one parameter per column"),
    ("mu_train", None, "one parameter per column"),
    ("mesh_size", "21", "mesh_size must be a positive integer"),
    ("mesh_size", None, "mesh_size must be a positive integer"),
], ids=["mu_train0", "None", "mesh_size-str", "mesh_size-None"])
def test_error_sweep_rejects_a_basis_whose_parameters_do_not_match_its_columns(
        tmp_path, capsys, key, value, problem):
    chafee = make_model("chafee", 41)
    basis = BasisMatrix(chafee)
    for guess in (chafee.default_guess, chafee.interpolate(lambda x: np.sin(2 * np.pi * x))):
        basis.enrich(guess, 12.0)
    basis.save(tmp_path / "basis.csv")
    meta = json.loads((tmp_path / "basis.json").read_text())
    meta[key] = value
    (tmp_path / "basis.json").write_text(json.dumps(meta))
    code = run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5",
                    "--out", str(tmp_path / "score")])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot load basis" in err and problem in err and "Traceback" not in err
    assert not (tmp_path / "score").exists()


@pytest.mark.parametrize("name, text, problem", [
    ("basis.json", "[]", "basis metadata must be a JSON object (got list)"),
    ("basis.json", "null", "basis metadata must be a JSON object (got NoneType)"),
    ("basis.csv", "nan", "basis matrix has non-finite entries"),
    ("basis.csv", "inf", "basis matrix has non-finite entries"),
], ids=["json-list", "json-null", "csv-nan", "csv-inf"])
def test_error_sweep_rejects_a_corrupt_basis_file(tmp_path, capsys, name, text, problem):
    chafee = make_model("chafee", 21)
    basis = BasisMatrix(chafee)
    basis.enrich(chafee.default_guess, 12.0)
    basis.save(tmp_path / "basis.csv")
    path = tmp_path / name
    if name == "basis.json":
        path.write_text(text)
    else:  # one column: one entry per line
        lines = path.read_text().splitlines()
        lines[10] = text
        path.write_text("\n".join(lines) + "\n")
    score = tmp_path / "score"
    code = run_cli(["error-sweep", "--basis-dir", str(tmp_path), "--test", "5",
                    "--out", str(score)])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot load basis" in err and problem in err and "Traceback" not in err
    assert not score.exists()


def test_error_sweep_rejects_missing_basis(tmp_path, capsys):
    code = run_cli(["error-sweep", "--basis-dir", str(tmp_path / "nowhere"),
                    "--out", str(tmp_path / "o")])
    assert code == 1
    assert "cannot load basis" in capsys.readouterr().err


def test_compare_argument_validation(tmp_path, capsys):
    out = ["--out", str(tmp_path / "o")]
    assert run_cli(["compare", "--strategies", "deflated"] + FAST + out) == 1
    assert "at least 2" in capsys.readouterr().err
    assert run_cli(["compare", "--strategies", "deflated,magic"] + FAST + out) == 1
    assert "unknown strategy" in capsys.readouterr().err
    # pod needs no deflated run to size it
    assert run_cli(["compare", "--strategies", "vanilla,pod"] + FAST + out) == 0


@pytest.mark.parametrize("n_modes", ["-1", "0"])
def test_compare_rejects_a_mode_count_below_one(tmp_path, capsys, n_modes):
    out = tmp_path / "o"
    code = run_cli(["compare", "--strategies", "deflated,pod", "--nmax", n_modes]
                   + FAST + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: n_max must be >= 1 (got {n_modes})")
    assert not out.exists()


def test_compare_needs_two_distinct_strategies(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["compare", "--strategies", "deflated,deflated"]
                   + FAST + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: compare requires at least 2 distinct")
    assert not out.exists()


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.newton() == NewtonConfig()
    assert cfg.greedy() == GreedyConfig()
    assert EstimatorKind(cfg.estimator_kind) is GreedyConfig().estimator_kind
    assert cfg.adaptive() == AdaptiveConfig()


def test_compare_matched_n_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["compare", "--model", "chafee",
                    "--strategies", "deflated,pod"]
                   + FAST + ["--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["strategies"][0] == "deflated"
    by_strategy = {row["strategy"]: row for row in report["summary"]}
    assert set(by_strategy) == {"deflated", "pod"}
    # matched mode count: both final table rows sit at the same N
    assert by_strategy["pod"]["n"] == by_strategy["deflated"]["n"]
    lines = (out / "error_vs_n.csv").read_text().splitlines()
    assert lines[0] == "strategy,n,max_error,avg_error,n_flagged"
    assert "certified" in capsys.readouterr().out


def test_compare_without_deflated_gives_pod_nmax_modes_up_to_the_snapshot_rank(tmp_path):
    cfg = RunConfig(model_kind="chafee", mesh_size=41, train_size=11)
    model = cfg.model()
    train = solution_ensemble(model, cfg.grid(cfg.train_size, model).train_points,
                              cfg.newton())
    rank = pod_basis(model, [p.u for p in train.points]).n
    assert 2 < rank < 50
    for n_max, n_pod in (("2", 2), ("50", rank)):
        out = tmp_path / n_max
        assert run_cli(["compare", "--model", "chafee", "--strategies", "vanilla,pod",
                        "--nmax", n_max] + FAST + ["--out", str(out)]) == 0
        summary = {row["strategy"]: row for row in read_report(out)["summary"]}
        assert summary["pod"]["n"] == n_pod
