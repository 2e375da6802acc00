#!/usr/bin/env python3
"""Mapping a curl-free 3-D field (magnetic-field style) from point samples.

Magnetostatics makes the field curl-free.  The curl alone yields the
covariance: its annihilator G is the gradient, and G's kernel family is
the closed-form curl-free kernel, with the field's signal variance.  We use a synthetic stand-in dataset
(gradient of a random smooth potential plus noise), compare against the
diagonal kernel on held-out points, and write the predicted field
magnitude over horizontal slices to CSV for plotting.
"""

import csv

import numpy as np

from fieldgp import (
    Dataset,
    DiagonalKernel,
    OptConfig,
    SeHyperparams,
    construct_g,
    field_family,
    fit_gp,
    fit_hyperparameters,
    make_curl_operator_3d,
    predict,
    rmse,
    synthetic_curl_free_field,
)

rng = np.random.default_rng(8)

X, B = synthetic_curl_free_field(600, seed=8, noise_std=1e-3)
train, test = np.split(rng.permutation(600), [200])
data = Dataset(X[train], B[train], noise_std=1e-3)
opt = OptConfig(restarts=1, maxiter=60, seed=0, learn_noise=True)
init = SeHyperparams(float(np.var(B)), 1.0, 1e-6)

fit_d = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 3), init, opt)
model_d = fit_gp(data, DiagonalKernel(fit_d.theta, 3),
                 noise_variance=fit_d.theta.noise_variance)
rmse_d = rmse(predict(model_d, X[test]).means, B[test])

curl_free = field_family(construct_g(make_curl_operator_3d())[0])
fit_c = fit_hyperparameters(data, curl_free, init, opt)
model_c = fit_gp(data, curl_free(fit_c.theta),
                 noise_variance=fit_c.theta.noise_variance)
rmse_c = rmse(predict(model_c, X[test]).means, B[test])

print(f"held-out rmse, diagonal kernel:  {rmse_d:.5f}")
print(f"held-out rmse, curl-free kernel: {rmse_c:.5f}")

# predicted field magnitude over three horizontal slices
axis = np.linspace(0.0, 4.0, 25)
with open("magnetic_slices.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["x1", "x2", "x3", "magnitude"])
    for height in (0.4, 1.0, 1.6):
        slice_pts = np.array([[a, b, height] for a in axis for b in axis])
        magnitude = np.linalg.norm(predict(model_c, slice_pts).means, axis=1)
        for p, m in zip(slice_pts, magnitude):
            writer.writerow([f"{p[0]:.3f}", f"{p[1]:.3f}", f"{p[2]:.3f}",
                             f"{m:.6f}"])
print("wrote magnetic_slices.csv (3 horizontal slices, 25x25 each)")
