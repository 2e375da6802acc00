#!/usr/bin/env python3
"""Enforcing constraints with pseudo-observations, and where that breaks.

The alternative to building the constraint into the kernel is observing
"F[f] = 0" as noise-free artificial data at chosen points.  The error
shrinks as points are added, but the noise-free observations soon
depend on each other numerically, so only some of them can be conditioned
on (the `kept` column), and between the chosen points the constraint is
not enforced at all.  The full protocol (with per-repetition refits and
aggregation over seeds) is available as `run_simulated`; this script
shows one repetition by hand.
"""

import numpy as np

from fieldgp import (
    Dataset,
    DiagonalKernel,
    OptConfig,
    SeHyperparams,
    augment,
    construct_g,
    fit_gp,
    fit_hyperparameters,
    make_divergence_operator,
    predict,
    prediction_grid,
    rmse,
    simulated_field,
    transform_kernel,
)

rng = np.random.default_rng(3)
F = make_divergence_operator(2)

X = rng.uniform(0.0, 4.0, size=(50, 2))
Y = simulated_field(X, 0.01) + rng.normal(0.0, 1e-4, size=(50, 2))
data = Dataset(X, Y, noise_std=1e-4)
grid = prediction_grid(((0.0, 4.0), (0.0, 4.0)), 20)
truth = simulated_field(grid, 0.01)

theta = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 2),
                            SeHyperparams(float(np.var(Y)), 1.0, 1e-8),
                            OptConfig(restarts=2, maxiter=120, seed=0)).theta
prior = DiagonalKernel(theta, 2, in_dim=2)

print("artificial constraint observations on the diagonal kernel:")
print(f"{'Nc':>5s} {'joint dim':>10s} {'kept':>6s} {'rmse':>8s}")
for nc in (0, 25, 50, 100, 200, 400):
    pts = grid[rng.choice(grid.shape[0], size=nc, replace=False)]
    model = augment(data, F, pts, prior)
    error = rmse(predict(model, grid).means, truth)
    kept = len(model.block.rows)
    print(f"{nc:>5d} {model.joint_dim:>10d} {kept:>6d} {error:>8.4f}")

G, _ = construct_g(F)
fit_c = fit_hyperparameters(data, lambda th: transform_kernel(G, th),
                            SeHyperparams(float(np.var(Y)), 1.0, 1e-8),
                            OptConfig(restarts=2, maxiter=120, seed=0))
model_c = fit_gp(data, transform_kernel(G, fit_c.theta))
print(f"\ntransformed kernel, problem dim stays {2 * len(X)}: "
      f"rmse = {rmse(predict(model_c, grid).means, truth):.4f}")
