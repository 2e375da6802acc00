"""Output checks for one benchmark run.

``check_calls`` checks what every pipeline call left behind: exit code 0,
an ``rmse.csv`` that ``parse_rmse_csv`` reads with the expected rows, the
acceptance ordering (the workload's constrained method beats the
diagonal model), identical RMSE on every call of the run, and agreement
with the reference RMSE recorded for the seed.  A seed with no record is
held to the workload's ceiling instead: the worst RMSE over the recorded
seeds.  On the 3-D workloads RMSE follows the fixed noise level more
than the size of the seed's field, so it is not scaled by the field.

``constraint_residual`` is the paper's central property, checked with
``fieldgp.checks.fd_apply_operator``: the posterior mean of the
constrained model satisfies F[m] = 0 at points away from the data, up to
finite-difference error, while the diagonal model's does not.
"""

import json
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# relative finite-difference step, and the bounds the probe enforces
FD_STEP = 1e-4
RESIDUAL_MAX = 1e-5          # constrained model, relative to field scale / length scale
RESIDUAL_RATIO_MAX = 1e-3    # constrained residual over the diagonal model's


def method_summary(rows, primary):
    """rmse.<method> and method_s.<method> from rmse.csv rows.

    Times are summed over nc; an artificial RMSE is taken at the largest nc.
    The workload's own method is also reported as ``primary``.
    """
    out = {}
    for row in rows:
        out[f"method_s.{row.method}"] = out.get(f"method_s.{row.method}", 0.0) + row.seconds
        out[f"rmse.{row.method}"] = row.mean      # rows come in increasing nc
    out["method_s.primary"] = out[f"method_s.{primary}"]
    out["rmse.primary"] = out[f"rmse.{primary}"]
    return out


def check_calls(inputs, calls):
    """(problems, basis) for the calls' outputs; no problems means correct.

    basis says what the RMSE was checked against: "seed" for the seed's
    own reference, "ceiling" for the workload's ceiling, None if the
    checks stopped before it.
    """
    problems = []
    expected = inputs.expected_keys()
    first = None
    for i, call in enumerate(calls):
        if call.exit_code != 0:
            problems.append(f"call {i}: CLI exit code {call.exit_code}")
            continue
        if call.rows is None:
            problems.append(f"call {i}: rmse.csv did not parse: {call.parse_error}")
            continue
        keys = [(r.method, r.nc) for r in call.rows]
        if keys != expected:
            problems.append(f"call {i}: rmse.csv rows {keys}, expected {expected}")
            continue
        accuracy = [(r.method, r.nc, r.mean, r.std, r.n_ok, r.jitter) for r in call.rows]
        if first is None:
            first, first_rows = accuracy, call.rows
        elif accuracy != first:
            problems.append(f"call {i}: RMSE differs from an earlier call on identical inputs")
    if problems or first is None:
        return problems or ["no call completed"], None

    rmse = method_summary(first_rows, inputs.workload.primary)
    for key, value in rmse.items():
        if key.startswith("rmse.") and not np.isfinite(value):
            problems.append(f"{key} is not finite: {value}")
    if not rmse["rmse.primary"] < rmse["rmse.diagonal"]:
        problems.append(f"ordering: {inputs.workload.primary} RMSE "
                        f"{rmse['rmse.primary']:.6g} is not below diagonal "
                        f"{rmse['rmse.diagonal']:.6g}")
    basis, reference_problems = _check_reference(inputs, rmse)
    return problems + reference_problems, basis


def _check_reference(inputs, rmse):
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    tol = reference["tolerance"]
    name = inputs.workload.name
    recorded = reference["rmse"][name].get(str(inputs.seed))
    if recorded is not None:
        basis, limits = "seed", recorded
    else:
        basis, limits = "ceiling", reference["ceiling"][name]
    problems = []
    for key, limit in limits.items():
        if not rmse[key] <= limit * (1.0 + tol):
            problems.append(f"{key} = {rmse[key]:.6g} is worse than the {basis} "
                            f"reference {limit:.6g} by more than {tol:.0%}")
    return basis, problems


def constraint_residual(inputs):
    """Relative FD residual of F[posterior mean] for the constrained and diagonal models.

    Returns ({"constrained": r_c, "diagonal": r_d}, problems).  sim_div2d
    uses the data of its first repetition, drawn as ``run_simulated``
    draws it; the 3-D workloads use the first 150 rows of the field CSV.
    """
    from fieldgp import (CurlFreeKernel, Dataset, DiagonalKernel, OptConfig,
                         SeHyperparams, construct_g, fit_gp, fit_hyperparameters,
                         load_field_csv, make_curl_operator_3d,
                         make_divergence_operator, predict, simulated_field,
                         transform_kernel)
    from fieldgp.checks import fd_apply_operator

    cfg = inputs.workload.config
    seed = inputs.seed
    if inputs.workload.constraint == "div2d":
        F = make_divergence_operator(2)
        G, _ = construct_g(F)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(cfg["repetitions"])[0])
        lows, highs = np.array(cfg["domain"]).T
        X = rng.uniform(lows, highs, size=(cfg["n_train"], 2))
        Y = simulated_field(X, cfg["field_param_a"]) \
            + rng.normal(0.0, cfg["noise_std"], size=X.shape)
        families = {"constrained": lambda th: transform_kernel(G, th),
                    "diagonal": lambda th: DiagonalKernel(th, 2)}
        derivative_prior = {"constrained": True, "diagonal": False}
    else:
        F = make_curl_operator_3d()
        X, Y = load_field_csv(inputs.csv_path)
        X, Y = X[:150], Y[:150]
        lows, highs = np.array(cfg["domain"]).T
        families = {"constrained": CurlFreeKernel,
                    "diagonal": lambda th: DiagonalKernel(th, 3)}
        derivative_prior = {"constrained": False, "diagonal": False}
    data = Dataset(X, Y, noise_std=cfg["noise_std"])
    probe_rng = np.random.default_rng([seed, 7])
    margin = 0.1 * (highs - lows)
    points = probe_rng.uniform(lows + margin, highs - margin, size=(12, len(lows)))

    span = float(np.max(np.ptp(X, axis=0)))
    residual = {}
    for label, family in families.items():
        ls = 0.3 * span
        sv = float(np.var(Y)) * (ls ** 2 if derivative_prior[label] else 1.0)
        init = SeHyperparams(sv, ls, cfg["noise_std"] ** 2)
        fit = fit_hyperparameters(data, family, init,
                                  OptConfig(restarts=1, maxiter=60, seed=seed))
        model = fit_gp(data, family(fit.theta), noise_variance=fit.theta.noise_variance)
        ell = fit.theta.length_scale

        def mean(x):
            return predict(model, np.asarray(x)[None, :]).means[0]

        scale = max(float(np.max(np.abs(mean(p)))) for p in points)
        worst = max(float(np.max(np.abs(fd_apply_operator(F, mean, p, FD_STEP * ell))))
                    for p in points)
        residual[label] = worst * ell / scale

    problems = []
    if not residual["constrained"] <= RESIDUAL_MAX:
        problems.append(f"constrained posterior mean violates the constraint: relative "
                        f"residual {residual['constrained']:.3e} > {RESIDUAL_MAX:g}")
    if not residual["constrained"] <= RESIDUAL_RATIO_MAX * residual["diagonal"]:
        problems.append(f"constrained residual {residual['constrained']:.3e} is not far "
                        f"below the diagonal model's {residual['diagonal']:.3e}")
    return residual, problems
