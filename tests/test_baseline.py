"""Tests for the artificial-observation (pseudo-observation) baseline."""

import numpy as np
import pytest

from fieldgp.baseline import augment, predict_augmented
from fieldgp.experiments import simulated_field
from fieldgp.gp import (Dataset, cross_gram, fit_gp, log_marginal_likelihood,
                        predict)
from fieldgp.kernels import (DiagonalKernel, SeHyperparams, apply_operator_to_expr,
                             transform_kernel)
from fieldgp.operators import (DimensionMismatch, OperatorMatrix, OperatorPoly,
                               construct_g, make_divergence_operator)

from conftest import fd_divergence

THETA = SeHyperparams(1.0, 1.0)


def dense_conditioning_oracle(data, F, pts, expr, Xstar):
    """Joint-Gaussian conditioning with explicit solves (no Cholesky reuse)."""
    cross = apply_operator_to_expr(F, expr, side="right")
    both = apply_operator_to_expr(F, cross, side="left")
    k_dd = cross_gram(expr, data.inputs, data.inputs) \
        + data.noise_std ** 2 * np.eye(len(data.inputs) * data.out_dim)
    k_dc = cross_gram(cross, data.inputs, pts)
    k_cc = cross_gram(both, pts, pts)
    k_oo = np.block([[k_dd, k_dc], [k_dc.T, k_cc]])
    k_so = np.hstack([cross_gram(expr, Xstar, data.inputs),
                      cross_gram(cross, Xstar, pts)])
    k_ss = cross_gram(expr, Xstar, Xstar)
    y = np.concatenate([data.y_flat, np.zeros(pts.shape[0] * F.rows)])
    mean = k_so @ np.linalg.solve(k_oo, y)
    cov = k_ss - k_so @ np.linalg.solve(k_oo, k_so.T)
    m = Xstar.shape[0]
    return mean.reshape(m, data.out_dim), np.diag(cov).reshape(m, data.out_dim)


def test_no_constraints_matches_plain_gp(rng):
    kernel = DiagonalKernel(THETA, 2, in_dim=2)
    X = rng.uniform(0, 3, size=(8, 2))
    Y = rng.standard_normal((8, 2))
    data = Dataset(X, Y, noise_std=0.05)
    problem = augment(data, make_divergence_operator(2), np.zeros((0, 2)), kernel)
    model = fit_gp(data, kernel)
    Xs = rng.uniform(0, 3, size=(7, 2))
    a, b = predict_augmented(problem, Xs), predict(model, Xs)
    assert np.allclose(a.means, b.means, atol=1e-12)
    assert np.allclose(a.marginal_variances, b.marginal_variances, atol=1e-12)


def test_matches_dense_conditioning_oracle(rng):
    # explicit joint-Gaussian conditioning on small instances, N + Nc <= 15
    F = make_divergence_operator(2)
    expr = DiagonalKernel(THETA, 2, in_dim=2)
    for n, nc in [(5, 4), (10, 5), (3, 12), (12, 3)]:
        X = rng.uniform(0, 3, size=(n, 2))
        Y = rng.standard_normal((n, 2))
        pts = rng.uniform(0, 3, size=(nc, 2))
        Xs = rng.uniform(0, 3, size=(6, 2))
        data = Dataset(X, Y, noise_std=0.05)
        problem = augment(data, F, pts, expr)
        pred = predict_augmented(problem, Xs)
        mean, var = dense_conditioning_oracle(data, F, pts, expr, Xs)
        assert np.max(np.abs(pred.means - mean)) <= 1e-6
        assert np.max(np.abs(pred.marginal_variances - var)) <= 1e-6


def test_lml_counts_pseudo_observations(rng):
    # evidence of the data and the zero pseudo-observations under the joint Gram
    F = make_divergence_operator(2)
    expr = DiagonalKernel(THETA, 2, in_dim=2)
    X = rng.uniform(0, 3, size=(6, 2))
    data = Dataset(X, rng.standard_normal((6, 2)), noise_std=0.1)
    pts = rng.uniform(0, 3, size=(4, 2))
    model = augment(data, F, pts, expr)
    cross = apply_operator_to_expr(F, expr, side="right")
    k_dc = cross_gram(cross, X, pts)
    k_oo = np.block([
        [cross_gram(expr, X, X) + 0.01 * np.eye(12), k_dc],
        [k_dc.T, cross_gram(apply_operator_to_expr(F, cross, side="left"), pts, pts)]])
    y = np.concatenate([data.y_flat, np.zeros(4)])
    dense = (-0.5 * y @ np.linalg.solve(k_oo, y)
             - 0.5 * np.linalg.slogdet(k_oo)[1]
             - 0.5 * y.size * np.log(2 * np.pi))
    assert model.jitter == 0.0
    assert log_marginal_likelihood(model) == pytest.approx(dense, rel=1e-8)


def test_constraint_enforced_pointwise(rng):
    # divergence of the posterior mean nearly vanishes at constraint points
    F = make_divergence_operator(2)
    X = rng.uniform(0, 4, size=(25, 2))
    Y = simulated_field(X, 0.01) + rng.normal(0, 1e-4, size=(25, 2))
    data = Dataset(X, Y, noise_std=1e-4)
    theta = SeHyperparams(np.var(Y), 1.0)
    pts = rng.uniform(0.5, 3.5, size=(16, 2))
    problem = augment(data, F, pts, DiagonalKernel(theta, 2, in_dim=2))
    mean_at = lambda p: predict_augmented(problem, p[None]).means[0]
    scale = np.max(np.abs(predict_augmented(problem, pts).means))
    for p in pts:
        assert abs(fd_divergence(mean_at, p, h=1e-4)) <= 1e-3 * scale


def test_enforcement_weaker_between_points_than_transformed(rng):
    # at midpoints between constraint points the pseudo-observation model
    # violates the constraint while the transformed kernel does not
    F = make_divergence_operator(2)
    X = rng.uniform(0, 4, size=(30, 2))
    Y = simulated_field(X, 0.01) + rng.normal(0, 1e-4, size=(30, 2))
    data = Dataset(X, Y, noise_std=1e-4)
    theta = SeHyperparams(np.var(Y), 1.0)

    xs = np.linspace(0.5, 3.5, 5)
    grid = np.array([[a, b] for a in xs for b in xs])
    problem = augment(data, F, grid, DiagonalKernel(theta, 2, in_dim=2))
    G, _ = construct_g(F)
    model = fit_gp(data, transform_kernel(G, SeHyperparams(1.0, 0.8)))

    step = (xs[1] - xs[0]) / 2.0
    midpoints = np.array([[a + step, b + step] for a in xs[:-1] for b in xs[:-1]])
    aug_at = lambda p: predict_augmented(problem, p[None]).means[0]
    gp_at = lambda p: predict(model, p[None]).means[0]
    aug_div = max(abs(fd_divergence(aug_at, p, h=1e-4)) for p in midpoints)
    gp_div = max(abs(fd_divergence(gp_at, p, h=1e-4)) for p in midpoints)
    assert gp_div < aug_div


def test_identity_row_forces_component_to_zero(rng):
    # a degree-0 constraint row observed at a training input pins f1 there
    F = OperatorMatrix([[OperatorPoly.constant(2, 1), OperatorPoly.zero(2)]])
    X = rng.uniform(0, 2, size=(6, 2))
    Y = rng.standard_normal((6, 2)) + 2.0
    data = Dataset(X, Y, noise_std=0.2)
    problem = augment(data, F, X[:1], DiagonalKernel(THETA, 2, in_dim=2))
    pred = predict_augmented(problem, X[:1])
    assert abs(pred.means[0, 0]) < 0.05 * abs(Y[0, 0])


def test_problem_size_grows_linearly():
    F = make_divergence_operator(2)
    data = Dataset(np.zeros((4, 2)), np.zeros((4, 2)), noise_std=0.1)
    expr = DiagonalKernel(THETA, 2, in_dim=2)
    dims = [augment(data, F, np.random.default_rng(0).uniform(0, 1, (nc, 2)),
                    expr).joint_dim for nc in (0, 3, 6)]
    assert dims == [8, 8 + 3, 8 + 6]  # N*K + Nc*rows(F)


def test_augment_input_validation(rng):
    data = Dataset(rng.uniform(0, 1, (4, 2)), rng.standard_normal((4, 2)), 0.1)
    div = make_divergence_operator(2)
    with pytest.raises(DimensionMismatch):
        augment(data, div, np.zeros((2, 2)), DiagonalKernel(THETA, 2))  # no in_dim
    with pytest.raises(ValueError):
        augment(data, make_divergence_operator(3), np.zeros((2, 2)),
                DiagonalKernel(THETA, 2, in_dim=2))


def test_jitter_recorded_for_noiseless_block(rng):
    # many noise-free constraint rows typically require a recorded jitter
    F = make_divergence_operator(2)
    X = rng.uniform(0, 2, size=(10, 2))
    data = Dataset(X, rng.standard_normal((10, 2)), noise_std=1e-6)
    pts = rng.uniform(0, 2, size=(60, 2))
    problem = augment(data, F, pts, DiagonalKernel(THETA, 2, in_dim=2))
    assert problem.jitter >= 0.0
    assert np.all(np.isfinite(problem.alpha))
