"""Command-line front end for batch experiments.

Configuration is layered: package defaults, then an optional JSON config
file, then command-line flags, with later layers winning.  Every run writes
its full effective configuration into report.json so any artifact directory
is a complete reproduction recipe.  Artifacts are deterministic: reruns with
the same configuration are byte-identical, which makes them diffable.

Exit codes: 0 when the requested computation certified (or has no
certification notion), 2 when a greedy run stopped without reaching its
tolerance or a numerical abort occurred, 1 on configuration errors, which
include malformed command lines (`--help` exits 0).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace

from .analysis import (SolutionEnsemble, diagram_csv, error_sweep, error_vs_n,
                       errors_csv, solution_ensemble, write_csv)
from .estimators import EstimatorKind
from .greedy import (AdaptiveConfig, GreedyConfig, GreedyStatus,
                     adaptive_greedy, deflated_greedy, vanilla_greedy)
from .model import ModelKind, ParameterSpace, ParametricModel, make_model
from .nlsolve import NewtonConfig
from .pod import pod_basis
from .rom import BasisMatrix

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_UNCERTIFIED = 2

_STRATEGIES = ("vanilla", "adaptive", "deflated", "pod")
_MODELS = tuple(k.value for k in ModelKind)
_ESTIMATORS = tuple(k.value for k in EstimatorKind)

ESTIMATOR_FIELDS = ["mu", "branch", "delta", "beta", "tau", "valid"]

# JSON values a config field takes, by the type of its default; never a bool.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"),
               type(None): ((int, float, type(None)), "a number or null")}


@dataclass
class RunConfig:
    """Effective settings of one experiment; serializes losslessly to JSON."""

    model_kind: str = "chafee"
    mesh_size: int = 201
    mu_min: float | None = None  # None: take the model's default interval
    mu_max: float | None = None
    train_size: int = 51
    test_size: int = 151
    strategy: str = "deflated"
    n_max: int = GreedyConfig.n_max
    tol: float = GreedyConfig.tol
    estimator_kind: str = GreedyConfig.estimator_kind.value
    n_ref: int = AdaptiveConfig.n_ref
    bif_tol: float = AdaptiveConfig.bif_tol
    r: float = NewtonConfig.power_r
    sigma: float = NewtonConfig.shift_sigma
    newton_tol: float = NewtonConfig.tol
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object (got {type(data).__name__})")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config field {unknown[0]!r}")
        for name, value in data.items():
            types, what = _JSON_TYPES[type(getattr(cls, name))]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {name!r} must be {what} (got {value!r})")
        return cls(**data)

    def validate(self) -> list[str]:
        """The CLI's own rules, then each distinct ValueError of the run objects
        as the library words it, labeled with the grid that raised it."""
        problems = []
        if self.strategy not in _STRATEGIES:
            problems.append(f"strategy must be one of {_STRATEGIES} (got {self.strategy!r})")
        builds = [("", self.model), ("", self.greedy), ("", self.adaptive)]
        if (self.mu_min is None) != (self.mu_max is None):  # no grid from (mu_min, None)
            problems.append("mu_min and mu_max must be given together")
        else:
            builds[1:1] = [("train grid: ", lambda: self.grid(self.train_size, self.model())),
                           ("test grid: ", lambda: self.grid(self.test_size, self.model()))]
        found = {}
        for label, build in builds:
            try:
                build()
            except ValueError as exc:
                found.setdefault(str(exc), f"{label}{exc}")
        return problems + list(found.values())

    def model(self) -> ParametricModel:
        return make_model(self.model_kind, self.mesh_size)

    def grid(self, size: int, model: ParametricModel) -> ParameterSpace:
        """`size` equispaced points on [mu_min, mu_max], else on the model's interval."""
        ends = model.default_interval() if self.mu_min is None else (self.mu_min, self.mu_max)
        return ParameterSpace.equispaced(*ends, size)

    def newton(self) -> NewtonConfig:
        """The settings of every Newton solve of the run, deflated ones included."""
        return NewtonConfig(tol=self.newton_tol, power_r=self.r, shift_sigma=self.sigma)

    def greedy(self) -> GreedyConfig:
        return GreedyConfig(n_max=self.n_max, tol=self.tol,
                            estimator_kind=self.estimator_kind, newton=self.newton())

    def adaptive(self) -> AdaptiveConfig:
        return AdaptiveConfig(n_ref=self.n_ref, bif_tol=self.bif_tol)

    def multi_branch(self) -> bool:
        """Deflated and pod bases get the deflated test sweep, others the single-seed one."""
        return self.strategy in ("deflated", "pod")


def _build_basis(cfg: RunConfig, model, space: ParameterSpace):
    """(basis, report dict, per-iteration estimator tables) for one strategy."""
    if cfg.strategy == "vanilla":
        basis, report = vanilla_greedy(model, space, cfg.greedy())
    elif cfg.strategy == "adaptive":
        basis, report = adaptive_greedy(model, space, cfg.greedy(), cfg.adaptive())
    elif cfg.strategy == "deflated":
        basis, report = deflated_greedy(model, space, cfg.greedy())
    else:
        train_oracle = solution_ensemble(model, space.train_points, cfg.newton())
        snapshots = [p.u for p in train_oracle.points]
        result = pod_basis(model, snapshots, cfg.n_max)
        payload = {
            "strategy": "pod",
            "status": "tolerance_met",  # no greedy stopping notion
            "n_snapshots": len(snapshots),
            "rank_deficient": result.rank_deficient,
            "singular_values": [float(s) for s in result.singular_values],
        }
        return result.basis, payload, []
    return basis, report.to_dict(), report.sweeps


def _test_oracle(cfg: RunConfig, model) -> SolutionEnsemble:
    """Branch-labeled full-order solutions on the run's test grid."""
    return solution_ensemble(model, cfg.grid(cfg.test_size, model).train_points, cfg.newton())


def _score(cfg: RunConfig, basis: BasisMatrix, oracle: SolutionEnsemble):
    """Error-sweep `basis` against the oracle and write errors.csv.

    Returns the sweep and the fields it contributes to report.json.
    """
    sweep = error_sweep(basis.model, basis, oracle.mus(), oracle, cfg.newton(),
                        deflate=cfg.multi_branch())
    errors_csv(os.path.join(cfg.out_dir, "errors.csv"), sweep)
    return sweep, {
        "n_basis": basis.n,
        "deflated_test_sweep": cfg.multi_branch(),
        "errors": {
            "max_unflagged_error": sweep.max_reduced(),
            "avg_unflagged_error": sweep.avg_reduced(),
            "n_rows": len(sweep.rows),
            "n_flagged": len(sweep.flagged()),
        },
    }


def _write_report(out_dir: str, payload: dict) -> None:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _exit_from_status(status: str) -> int:
    return EXIT_OK if status == GreedyStatus.TOLERANCE_MET.value else EXIT_UNCERTIFIED


def cmd_run(cfg: RunConfig) -> int:
    model = cfg.model()
    space = cfg.grid(cfg.train_size, model)
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        basis, report, sweeps = _build_basis(cfg, model, space)
    except (RuntimeError, ValueError) as exc:
        _write_report(cfg.out_dir, {"config": cfg.to_dict(), "failure": str(exc)})
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED

    basis.save(os.path.join(cfg.out_dir, "basis.csv"),
               os.path.join(cfg.out_dir, "basis.json"), strategy=cfg.strategy)
    for k, rows in enumerate(sweeps):
        write_csv(os.path.join(cfg.out_dir, f"estimators_iter_{k}.csv"),
                  ESTIMATOR_FIELDS, rows)

    oracle = _test_oracle(cfg, model)
    diagram_csv(os.path.join(cfg.out_dir, "diagram.csv"), oracle)
    sweep, scores = _score(cfg, basis, oracle)

    status = report.get("status", "tolerance_met")
    _write_report(cfg.out_dir, {"config": cfg.to_dict(), "report": report, **scores})
    print(f"{cfg.strategy}: status={status} n_basis={basis.n} "
          f"max_test_error={sweep.max_reduced():.3e} -> {cfg.out_dir}")
    return _exit_from_status(status)


def cmd_diagram(cfg: RunConfig) -> int:
    oracle = _test_oracle(cfg, cfg.model())
    os.makedirs(cfg.out_dir, exist_ok=True)
    diagram_csv(os.path.join(cfg.out_dir, "diagram.csv"), oracle)
    _write_report(cfg.out_dir, {
        "config": cfg.to_dict(),
        "branches": oracle.branches(),
        "n_points": len(oracle),
    })
    print(f"diagram: {len(oracle)} labeled points, branches {oracle.branches()} "
          f"-> {cfg.out_dir}")
    return EXIT_OK


def cmd_error_sweep(cfg: RunConfig, basis_dir: str, given: set[str]) -> int:
    json_path = os.path.join(basis_dir, "basis.json")
    try:
        basis = BasisMatrix.load(os.path.join(basis_dir, "basis.csv"), json_path)
        with open(json_path) as f:
            recorded = json.load(f).get("strategy")
        if recorded is not None and recorded not in _STRATEGIES:
            raise ValueError(f"unknown strategy {recorded!r}")
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load basis from {basis_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # The sweep runs on the basis's model: a model or mesh the user gave must
    # match it, and the config echo names it.
    for name, value in (("model_kind", basis.model.kind.value),
                        ("mesh_size", basis.model.mesh_size)):
        if name in given and getattr(cfg, name) != value:
            print(f"config error: {name} is {getattr(cfg, name)!r} but the basis "
                  f"in {basis_dir} has {value!r}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        setattr(cfg, name, value)
    # Without a --strategy the basis is scored as the strategy that built it
    # scored it; a basis saved without one keeps the configured strategy.
    if "strategy" not in given and recorded is not None:
        cfg.strategy = recorded
    oracle = _test_oracle(cfg, basis.model)
    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep, scores = _score(cfg, basis, oracle)
    _write_report(cfg.out_dir, {"config": cfg.to_dict(), "basis_dir": basis_dir, **scores})
    print(f"error-sweep: n_basis={basis.n} max_unflagged={sweep.max_reduced():.3e} "
          f"flagged={len(sweep.flagged())} -> {cfg.out_dir}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, strategies: list[str], n_modes: int | None,
                matched_n: bool) -> int:
    distinct = set(strategies)
    unknown = sorted(distinct - set(_STRATEGIES))
    problem = None
    if len(distinct) < 2:
        problem = f"compare requires at least 2 distinct strategies (got {sorted(distinct)})"
    elif unknown:
        problem = f"unknown strategy {unknown[0]!r}"
    elif n_modes is not None and n_modes < 1:
        problem = f"--n-modes must be >= 1 (got {n_modes})"
    elif "pod" in distinct and n_modes is None and not matched_n:
        problem = "compare with pod requires --n-modes or --matched-n"
    elif matched_n and "deflated" not in distinct:
        problem = "--matched-n needs the deflated strategy in the comparison"
    if problem:
        print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    model = cfg.model()
    space = cfg.grid(cfg.train_size, model)
    oracle = _test_oracle(cfg, model)

    # The deflated run goes first so its final size can cap the pod modes.
    ordered = sorted(distinct, key=lambda s: (s != "deflated", s))
    table: list[dict] = []
    summary: list[dict] = []
    matched = None
    try:
        for strategy in ordered:
            pod_modes = n_modes if n_modes is not None else matched
            sub = replace(cfg, strategy=strategy,
                          n_max=pod_modes if strategy == "pod" else cfg.n_max)
            basis, report, _ = _build_basis(sub, model, space)
            if strategy == "deflated":
                matched = basis.n
            rows = error_vs_n(model, basis, oracle.mus(), oracle, cfg.newton(),
                              deflate=sub.multi_branch())
            for row in rows:
                table.append({"strategy": strategy, **row})
            final = rows[-1] if rows else {"n": 0, "max_error": math.inf,
                                           "avg_error": math.inf, "n_flagged": 0}
            summary.append({"strategy": strategy, "status": report.get("status", ""),
                            **final})
    except (RuntimeError, ValueError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED

    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "error_vs_n.csv"),
              ["strategy", "n", "max_error", "avg_error", "n_flagged"], table)
    _write_report(cfg.out_dir, {
        "config": cfg.to_dict(),
        "strategies": ordered,
        "summary": summary,
    })
    print(f"{'strategy':>10} {'N':>4} {'max_error':>12} {'avg_error':>12} "
          f"{'certified':>10}")
    for row in summary:
        certified = "yes" if row["max_error"] <= cfg.tol else "no"
        print(f"{row['strategy']:>10} {row['n']:>4} {row['max_error']:>12.3e} "
              f"{row['avg_error']:>12.3e} {certified:>10}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--model", dest="model_kind", choices=_MODELS)
    p.add_argument("--mesh", dest="mesh_size", type=int)
    p.add_argument("--mu-min", dest="mu_min", type=float)
    p.add_argument("--mu-max", dest="mu_max", type=float)
    p.add_argument("--train", dest="train_size", type=int,
                   help="training grid size (initial grid for adaptive)")
    p.add_argument("--test", dest="test_size", type=int)
    p.add_argument("--strategy", choices=_STRATEGIES)
    p.add_argument("--nmax", dest="n_max", type=int,
                   help="max basis size (mode count for pod runs)")
    p.add_argument("--tol", type=float)
    p.add_argument("--estimator", dest="estimator_kind", choices=_ESTIMATORS)
    p.add_argument("--n-ref", dest="n_ref", type=int)
    p.add_argument("--bif-tol", dest="bif_tol", type=float)
    p.add_argument("--r", type=float, help="deflation power")
    p.add_argument("--sigma", type=float, help="deflation shift")
    p.add_argument("--newton-tol", dest="newton_tol", type=float,
                   help="Newton tolerance on the dual norm of the residual")
    p.add_argument("--out", dest="out_dir")


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a configuration error, not argparse's exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """The layered config and the names of the fields a config file or flag set."""
    data = {}
    if args.config:
        with open(args.config) as f:
            data = json.load(f)
    cfg = RunConfig.from_dict(data)
    given = set(data)
    for f in dataclass_fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
            given.add(f.name)
    return cfg, given


def main(argv=None) -> int:
    parser = _Parser(
        prog="bifrb",
        description="Certified reduced bases for 1D bifurcating PDE models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="build a basis and score it on a test grid")
    _add_config_flags(p_run)

    p_cmp = sub.add_parser("compare", help="error-vs-N table across strategies")
    _add_config_flags(p_cmp)
    p_cmp.add_argument("--strategies", required=True,
                       help="comma-separated list, e.g. vanilla,deflated")
    p_cmp.add_argument("--n-modes", dest="n_modes", type=int,
                       help="pod mode count")
    p_cmp.add_argument("--matched-n", dest="matched_n", action="store_true",
                       help="give pod the deflated run's final basis size")

    p_diag = sub.add_parser("diagram", help="labeled bifurcation diagram CSV")
    _add_config_flags(p_diag)

    p_err = sub.add_parser("error-sweep", help="score a saved basis on a test grid")
    _add_config_flags(p_err)
    p_err.add_argument("--basis-dir", required=True,
                       help="directory holding basis.csv and basis.json")

    try:
        args = parser.parse_args(argv)
        cfg, given = build_config(args)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    problems = cfg.validate()
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "run":
        return cmd_run(cfg)
    if args.command == "compare":
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
        return cmd_compare(cfg, strategies, args.n_modes, args.matched_n)
    if args.command == "diagram":
        return cmd_diagram(cfg)
    return cmd_error_sweep(cfg, args.basis_dir, given)


if __name__ == "__main__":
    sys.exit(main())
