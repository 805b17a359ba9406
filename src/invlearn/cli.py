"""Command-line interface for the experiment harness.

Subcommands: generate (training-set CSV), erm (single fit), verify
(assumption checklist), rates (rate experiment), bounds (bound curves).
"""

from __future__ import annotations

import argparse
import json
import logging
import pathlib
import sys

from numpy.linalg import LinAlgError

from .bounds import curve_table
from .errors import ConfigurationError, InvlearnError
from .experiment import (ExperimentConfig, bound_inputs, override,
                         run_rate_experiment, run_verification_suite)
from .risk import ErmOptions, erm_solve, expected_loss_mc
from .stochastics import draw_training_set


def _load_config(path):
    if path is None:
        raise ConfigurationError("--config is required for this subcommand")
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed config JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def _experiment_config(args) -> ExperimentConfig:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw = override(raw, {"master_seed": args.seed})
    return ExperimentConfig.from_dict(raw)


def _out_dir(args) -> pathlib.Path:
    out = pathlib.Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    cfg = _experiment_config(args)
    m = max(cfg.m_grid) if args.m is None else args.m
    ts = draw_training_set(cfg.problem, m, cfg.master_seed)
    path = _out_dir(args) / "training_set.csv"
    ts.to_csv(path)
    print(f"wrote {path} ({m} pairs)")
    return 0


def cmd_erm(args) -> int:
    cfg = _experiment_config(args)
    m = max(cfg.m_grid) if args.m is None else args.m
    ts = draw_training_set(cfg.problem, m, cfg.master_seed)
    res = erm_solve(cfg.param_class, cfg.family, ts,
                    ErmOptions(seed=cfg.master_seed))
    mc = expected_loss_mc(cfg.problem, res.theta, cfg.family, cfg.n_mc,
                          cfg.master_seed + 1)
    print(json.dumps({
        "theta_hat": res.theta.tolist(),
        "empirical_risk": res.objective,
        "expected_loss_mc": mc.estimate,
        "expected_loss_halfwidth": mc.halfwidth,
        "erm_residual": res.residual,
        "converged": res.converged,
    }, indent=2))
    return 0


def cmd_verify(args) -> int:
    cfg = _experiment_config(args)
    report = run_verification_suite(cfg)
    print(json.dumps(report, indent=2, default=str))
    return 0 if report["passed"] else 1


def cmd_rates(args) -> int:
    fit = run_rate_experiment(_experiment_config(args))
    fit.write(_out_dir(args))
    print(json.dumps(fit.summary(), indent=2, sort_keys=True))
    return 0


def cmd_bounds(args) -> int:
    table = curve_table(*bound_inputs(_experiment_config(args)))
    text = json.dumps(table, indent=2)
    if args.out:
        path = _out_dir(args) / "bounds.json"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlearn",
        description="Learned-reconstruction sample-error laboratory")
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override master_seed from the config")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="root logging level, to stderr (INFO: the rate "
                             "experiment's progress per m)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a training set, write CSV")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("erm", help="single empirical-risk fit")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_erm)

    p = sub.add_parser("verify", help="run the assumption checklist")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rates", help="run the rate experiment")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("bounds", help="evaluate bound curves over m_grid")
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(args.log_level)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvlearnError, LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
