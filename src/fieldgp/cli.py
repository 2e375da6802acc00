"""Command-line front end.

Subcommands: ``construct-g`` builds an annihilating operator from an
operator spec, ``check-kernel`` verifies a kernel against a constraint
with finite differences, ``sim-experiment`` and ``real-experiment`` run
the benchmark pipelines, and ``predict`` fits a GP on CSV data and
evaluates it at new points.

Exit codes are a stable contract: 0 success, 1 usage or parse errors,
2 when no annihilating operator exists within the degree budget.  Log
verbosity is controlled by the FIELDGP_LOG environment variable.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from .checks import check_kernel_constraint
from .experiments import (ExperimentConfig, emit_report, load_field_csv,
                          read_csv_columns, run_real_data, run_simulated)
from .gp import Dataset, OptConfig, fit_gp, fit_hyperparameters, predict
from .kernels import SeHyperparams, kernel_from_spec, transform_kernel
from .operators import NoAnnihilatorFound, OperatorMatrix, construct_g

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved here
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="fieldgp",
                     description="GP regression with operator constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct-g",
                       help="construct an annihilating operator matrix")
    p.add_argument("--f-spec", required=True, help="constraint operator JSON spec")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--out", required=True, help="output path for the G spec")

    p = sub.add_parser("check-kernel",
                       help="finite-difference constraint check of a kernel")
    p.add_argument("--f-spec", required=True)
    p.add_argument("--g-spec", default="auto",
                   help="operator spec for G, or 'auto' to construct it from F")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5,
                   help="maximum allowed relative violation")
    p.add_argument("--signal-variance", type=float, default=1.0)
    p.add_argument("--length-scale", type=float, default=1.0)

    p = sub.add_parser("sim-experiment", help="run the simulated benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("real-experiment", help="run the CSV-data benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("predict", help="fit a GP on CSV data and predict")
    p.add_argument("--data", required=True, help="training CSV (x1..x3,b1..b3)")
    p.add_argument("--kernel-spec", required=True, help="kernel spec JSON file")
    p.add_argument("--points", required=True, help="CSV of prediction points")
    p.add_argument("--out", required=True)
    p.add_argument("--no-fit", action="store_true",
                   help="use the spec hyperparameters without refitting")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except OSError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_construct_g(args):
    F = OperatorMatrix.from_json_dict(_load_json(args.f_spec))
    try:
        G, _ = construct_g(F, max_degree=args.max_degree)
    except NoAnnihilatorFound as exc:
        print(f"fieldgp: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    G.dump_json(args.out)
    print(f"G ({G.rows}x{G.cols}):")
    print(G.render())
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_check_kernel(args):
    F = OperatorMatrix.from_json_dict(_load_json(args.f_spec))
    if args.g_spec == "auto":
        try:
            G, _ = construct_g(F)
        except NoAnnihilatorFound as exc:
            print(f"fieldgp: {exc}", file=sys.stderr)
            return EXIT_NO_SOLUTION
    else:
        G = OperatorMatrix.from_json_dict(_load_json(args.g_spec))
    theta = SeHyperparams(signal_variance=args.signal_variance,
                          length_scale=args.length_scale)
    kernel = transform_kernel(G, theta)
    if args.samples == 0:
        print("warning: samples=0, check is vacuous", file=sys.stderr)
        print("max relative violation: n/a (0 samples)")
        return EXIT_OK
    report = check_kernel_constraint(F, kernel, n_samples=args.samples,
                                     seed=args.seed)
    print(f"max relative violation: {report.max_relative_violation:.3e} "
          f"over {report.n_samples} samples (tol {args.tol:g})")
    return EXIT_OK if report.passed(args.tol) else EXIT_USAGE


def _cmd_sim_experiment(args):
    config = _load_config(args.config, args.seed)
    report = run_simulated(config)
    paths = emit_report(report, args.out)
    _print_report(report, paths)
    return EXIT_OK


def _cmd_real_experiment(args):
    config = _load_config(args.config, args.seed)
    if not os.path.exists(args.data):
        raise _UsageError(f"data file not found: {args.data}")
    report = run_real_data(config, args.data)
    paths = emit_report(report, args.out)
    _print_report(report, paths)
    return EXIT_OK


def _load_config(path, seed_override):
    try:
        config = ExperimentConfig.from_json_dict(_load_json(path))
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    if seed_override is not None:
        config.seed = seed_override
    return config


def _print_report(report, paths):
    for row in report.rows:
        print(f"{row.method:>12s}  nc={row.nc:<4d} rmse={row.mean:.6g} "
              f"(+/- {row.std:.3g}, n={row.n_ok})")
    for path in paths:
        print(f"wrote {path}")


def _cmd_predict(args):
    X, B = load_field_csv(args.data)
    points = read_csv_columns(args.points, [f"x{i + 1}" for i in range(X.shape[1])])
    spec = _load_json(args.kernel_spec)
    kernel = kernel_from_spec(spec, default_out_dim=B.shape[1])
    data = Dataset(X, B, noise_std=float(np.sqrt(kernel.theta.noise_variance)))
    if not args.no_fit:
        family = lambda th: kernel_from_spec(
            {**spec, "hyperparams": th.to_dict()}, default_out_dim=B.shape[1])
        fit = fit_hyperparameters(data, family, kernel.theta,
                                  OptConfig(seed=args.seed, learn_noise=True))
        kernel = family(fit.theta)
        data = Dataset(X, B, noise_std=float(np.sqrt(fit.theta.noise_variance)))
    model = fit_gp(data, kernel)
    result = predict(model, points)
    _write_predictions(args.out, points, result)
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_predictions(path, points, result):
    import csv as _csv

    k = result.means.shape[1]
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(points.shape[1])]
                        + [f"mean_b{c + 1}" for c in range(k)]
                        + [f"var_b{c + 1}" for c in range(k)])
        for a in range(points.shape[0]):
            writer.writerow([repr(float(v)) for v in points[a]]
                            + [repr(float(v)) for v in result.means[a]]
                            + [repr(float(v)) for v in result.marginal_variances[a]])


_COMMANDS = {
    "construct-g": _cmd_construct_g,
    "check-kernel": _cmd_check_kernel,
    "sim-experiment": _cmd_sim_experiment,
    "real-experiment": _cmd_real_experiment,
    "predict": _cmd_predict,
}


def main(argv=None):
    logging.basicConfig(level=os.environ.get("FIELDGP_LOG", "WARNING").upper())
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"fieldgp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"fieldgp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
