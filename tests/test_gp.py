"""Tests for Gram assembly, factorization, likelihood, fitting, prediction."""

import numpy as np
import pytest

from fieldgp.baseline import augment
from fieldgp.gp import (
    JITTER_BASE_SCALE,
    JITTER_MAX_ESCALATIONS,
    Dataset,
    NotPositiveDefinite,
    OptConfig,
    assemble_gram,
    cholesky_jitter,
    cross_gram,
    fit_gp,
    fit_hyperparameters,
    log_marginal_likelihood,
    predict,
)
from fieldgp.kernels import DiagonalKernel, SeHyperparams, transform_kernel
from fieldgp.operators import construct_g, make_divergence_operator

from conftest import fd_divergence

THETA = SeHyperparams(1.0, 1.0)


def divfree_kernel(theta=THETA):
    G, _ = construct_g(make_divergence_operator(2))
    return transform_kernel(G, theta)


def sample_gp(kernel, X, rng, noise_std=0.0):
    gram = assemble_gram(kernel, X, noise_variance=1e-12)
    L = np.linalg.cholesky(gram)
    k = kernel.shape[0]
    y = L @ rng.standard_normal(L.shape[0])
    return (y + noise_std * rng.standard_normal(y.size)).reshape(len(X), k)


# ---------------------------------------------------------------------------
# Gram assembly


def test_assemble_gram_single_point_diagonal():
    theta = SeHyperparams(2.0, 1.0)
    gram = assemble_gram(DiagonalKernel(theta, 3), np.zeros((1, 2)),
                         noise_variance=0.25)
    assert np.allclose(gram, (2.0 + 0.25) * np.eye(3))


def test_assemble_gram_symmetry(rng):
    X = rng.uniform(0, 3, size=(12, 2))
    gram = assemble_gram(divfree_kernel(), X, noise_variance=1e-6)
    assert np.array_equal(gram, gram.T)


def test_assemble_gram_block_layout(rng):
    kernel = divfree_kernel()
    X = rng.uniform(0, 3, size=(4, 2))
    gram = assemble_gram(kernel, X)
    for a in range(4):
        for b in range(4):
            assert np.allclose(gram[2 * a:2 * a + 2, 2 * b:2 * b + 2],
                               kernel.eval(X[a], X[b]))


def test_cross_gram_rectangular(rng):
    kernel = divfree_kernel()
    X1, X2 = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
    C = cross_gram(kernel, X1, X2)
    assert C.shape == (6, 10)
    assert np.allclose(C, cross_gram(kernel, X2, X1).T)


# ---------------------------------------------------------------------------
# factorization


def test_cholesky_identity_no_jitter():
    L, jitter = cholesky_jitter(np.eye(5))
    assert jitter == 0.0
    assert np.allclose(L, np.eye(5))


def test_cholesky_rank_deficient_needs_jitter(rng):
    v = rng.standard_normal(6)
    M = np.outer(v, v)  # rank one, PSD
    L, jitter = cholesky_jitter(M)
    assert jitter > 0.0
    assert np.allclose(L @ L.T, M + jitter * np.eye(6), rtol=1e-10, atol=1e-12)


def test_cholesky_spd_reconstruction(rng):
    A = rng.standard_normal((8, 8))
    M = A @ A.T + 8 * np.eye(8)
    L, jitter = cholesky_jitter(M)
    assert jitter == 0.0
    assert np.max(np.abs(L @ L.T - M)) <= 1e-10 * np.max(np.abs(M))


def test_cholesky_not_pd():
    with pytest.raises(NotPositiveDefinite):
        cholesky_jitter(-np.eye(3))


def test_cholesky_policy_escalation_count(rng):
    # the jitter is base * tr(M)/n * 10^k, k <= the maximum escalation,
    # formed by repeated multiplication by 10 (so compared exactly)
    v = rng.standard_normal(40)
    M = np.outer(v, v)
    _, jitter = cholesky_jitter(M)
    schedule = [JITTER_BASE_SCALE * (np.trace(M) / 40)]
    for _ in range(JITTER_MAX_ESCALATIONS):
        schedule.append(schedule[-1] * 10.0)
    assert jitter in schedule


# ---------------------------------------------------------------------------
# log marginal likelihood


def test_lml_closed_form_single_point():
    theta = SeHyperparams(1.7, 1.0)
    sigma2 = 0.3
    data = Dataset(np.zeros((1, 1)), np.zeros((1, 1)), noise_std=np.sqrt(sigma2))
    model = fit_gp(data, DiagonalKernel(theta, 1))
    expected = -0.5 * np.log(1.7 + sigma2) - 0.5 * np.log(2 * np.pi)
    assert log_marginal_likelihood(model) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_points", [10, 100])  # up to N*K = 200
def test_lml_dense_oracle(rng, n_points):
    # against an explicit inverse and log-determinant
    kernel = divfree_kernel(SeHyperparams(1.4, 0.9))
    X = rng.uniform(0, 6, size=(n_points, 2))
    Y = rng.standard_normal((n_points, 2))
    sigma2 = 0.05
    data = Dataset(X, Y, noise_std=np.sqrt(sigma2))
    model = fit_gp(data, kernel)
    assert model.jitter == 0.0
    K = assemble_gram(kernel, X, noise_variance=sigma2)
    y = Y.reshape(-1)
    dense = (-0.5 * y @ np.linalg.solve(K, y)
             - 0.5 * np.linalg.slogdet(K)[1]
             - 0.5 * y.size * np.log(2 * np.pi))
    assert log_marginal_likelihood(model) == pytest.approx(dense, rel=1e-8)


def test_lml_prefers_generating_hyperparameters(rng):
    # on average over seeds the generating length scale scores higher
    # than a 10x longer one
    theta = SeHyperparams(1.0, 1.0)
    wrong = SeHyperparams(1.0, 10.0)
    diffs = []
    for _ in range(20):
        X = rng.uniform(0, 5, size=(25, 2))
        Y = sample_gp(DiagonalKernel(theta, 1), X, rng, noise_std=0.05)
        data = Dataset(X, Y, noise_std=0.05)
        good = log_marginal_likelihood(fit_gp(data, DiagonalKernel(theta, 1)))
        bad = log_marginal_likelihood(fit_gp(data, DiagonalKernel(wrong, 1)))
        diffs.append(good - bad)
    assert np.mean(diffs) > 0


def test_gp_model_invariants(rng):
    kernel = divfree_kernel()
    X = rng.uniform(0, 3, size=(15, 2))
    Y = rng.standard_normal((15, 2))
    data = Dataset(X, Y, noise_std=0.1)
    model = fit_gp(data, kernel)
    K = assemble_gram(kernel, X, noise_variance=0.01) + model.jitter * np.eye(30)
    assert np.max(np.abs(model.L @ model.L.T - K)) <= 1e-8 * np.max(np.abs(K))
    assert np.max(np.abs(K @ model.alpha - data.y_flat)) <= 1e-8 * np.max(
        np.abs(data.y_flat))


# ---------------------------------------------------------------------------
# hyperparameter fitting


def test_fit_recovers_length_scale(rng):
    theta = SeHyperparams(1.0, 1.0, noise_variance=0.01)
    recovered = []
    for _ in range(3):
        X = rng.uniform(0, 6, size=(100, 2))
        Y = sample_gp(DiagonalKernel(SeHyperparams(1.0, 1.0), 1), X, rng,
                      noise_std=0.1)
        data = Dataset(X, Y, noise_std=0.1)
        fit = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 1),
                                  SeHyperparams(0.5, 2.0, 0.01),
                                  OptConfig(restarts=2, maxiter=150, seed=7))
        recovered.append(fit.theta.length_scale)
    geo_mean = float(np.exp(np.mean(np.log(recovered))))
    assert 0.5 <= geo_mean / theta.length_scale <= 2.0


def test_fit_from_optimum_never_worse():
    # one observation: LML is maximized at sv = y^2 - sigma^2 in closed form
    y = 2.0
    sigma2 = 1.0
    data = Dataset(np.zeros((1, 1)), np.array([[y]]), noise_std=1.0)
    opt_theta = SeHyperparams(y ** 2 - sigma2, 1.0, noise_variance=sigma2)
    init_lml = log_marginal_likelihood(
        fit_gp(data, DiagonalKernel(opt_theta, 1)))
    fit = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 1), opt_theta,
                              OptConfig(restarts=1, maxiter=80, seed=0))
    assert fit.lml >= init_lml - 1e-9


def test_fit_best_seen_trace_monotone(rng):
    X = rng.uniform(0, 4, size=(12, 2))
    Y = rng.standard_normal((12, 1))
    data = Dataset(X, Y, noise_std=0.1)
    fit = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 1),
                              SeHyperparams(1.0, 1.0, 0.01),
                              OptConfig(restarts=2, maxiter=60, seed=3))
    trace = np.array(fit.trace)
    assert fit.n_evals == trace.size
    assert np.all(np.diff(trace) >= 0)


def test_fit_deterministic_given_seed(rng):
    X = rng.uniform(0, 4, size=(15, 2))
    Y = rng.standard_normal((15, 2))
    data = Dataset(X, Y, noise_std=0.05)
    kwargs = dict(init=SeHyperparams(1.0, 1.0, 0.0025),
                  opt_config=OptConfig(restarts=3, maxiter=50, seed=11))
    a = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 2), **kwargs)
    b = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 2), **kwargs)
    assert a.theta == b.theta
    assert a.lml == b.lml


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_fit_all_restarts_fail(rng):
    class BrokenKernel:
        shape = (1, 1)
        theta = THETA

        def eval_pairwise(self, X, X2):
            # negative definite blocks: factorization can never succeed
            k = -np.exp(-((X[:, None, :] - X2[None, :, :]) ** 2).sum(-1))
            return k[:, None, :, None]

    data = Dataset(rng.uniform(0, 1, (6, 2)), rng.standard_normal((6, 1)), 0.0)
    with pytest.raises(RuntimeError, match="every restart"):
        fit_hyperparameters(data, lambda th: BrokenKernel(),
                            SeHyperparams(1.0, 1.0, 0.0),
                            OptConfig(restarts=2, maxiter=10, seed=0))


def test_fit_learn_noise(rng):
    X = rng.uniform(0, 5, size=(60, 2))
    Y = sample_gp(DiagonalKernel(SeHyperparams(1.0, 1.0), 1), X, rng,
                  noise_std=0.2)
    data = Dataset(X, Y, noise_std=0.0)
    fit = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 1),
                              SeHyperparams(1.0, 1.0, 0.01),
                              OptConfig(restarts=2, maxiter=200, seed=5,
                                        learn_noise=True))
    assert 0.02 <= np.sqrt(fit.theta.noise_variance) <= 1.0


# ---------------------------------------------------------------------------
# prediction


def test_predict_interpolates_training_points(rng):
    kernel = divfree_kernel()
    X = rng.uniform(0, 3, size=(10, 2))
    Y = sample_gp(kernel, X, rng)
    data = Dataset(X, Y, noise_std=1e-8)
    model = fit_gp(data, kernel)
    pred = predict(model, X)
    assert np.max(np.abs(pred.means - Y)) <= 1e-6 * np.max(np.abs(Y))


def test_predict_far_field_reverts_to_prior(rng):
    kernel = DiagonalKernel(SeHyperparams(1.5, 0.5), 2)
    X = rng.uniform(0, 1, size=(8, 2))
    Y = rng.standard_normal((8, 2))
    model = fit_gp(Dataset(X, Y, noise_std=0.1), kernel)
    far = np.array([[60.0, -45.0]])
    pred = predict(model, far)
    assert np.max(np.abs(pred.means)) < 1e-10
    assert np.allclose(pred.marginal_variances, 1.5, rtol=1e-10)


def test_predict_posterior_mean_divergence_free(rng):
    from fieldgp.experiments import simulated_field

    X = rng.uniform(0, 4, size=(50, 2))
    Y = simulated_field(X, 0.01) + rng.normal(0, 1e-4, size=(50, 2))
    model = fit_gp(Dataset(X, Y, noise_std=1e-4),
                   divfree_kernel(SeHyperparams(1.0, 0.8)))
    points = rng.uniform(0.5, 3.5, size=(50, 2))
    mean_at = lambda p: predict(model, p[None]).means[0]
    scale = np.max(np.abs(predict(model, points).means))
    worst = max(abs(fd_divergence(mean_at, p, h=1e-4)) for p in points)
    assert worst <= 1e-3 * scale


def test_predict_linear_in_outputs(rng):
    kernel = DiagonalKernel(SeHyperparams(1.0, 0.8), 2)
    X = rng.uniform(0, 3, size=(9, 2))
    Y1 = rng.standard_normal((9, 2))
    Y2 = rng.standard_normal((9, 2))
    Xs = rng.uniform(0, 3, size=(6, 2))
    p1 = predict(fit_gp(Dataset(X, Y1, 0.1), kernel), Xs).means
    p2 = predict(fit_gp(Dataset(X, Y2, 0.1), kernel), Xs).means
    p12 = predict(fit_gp(Dataset(X, Y1 + Y2, 0.1), kernel), Xs).means
    assert np.allclose(p12, p1 + p2, rtol=1e-10, atol=1e-12)


def test_predict_full_covariance_consistent(rng):
    kernel = DiagonalKernel(SeHyperparams(1.0, 1.0), 1)
    X = rng.uniform(0, 2, size=(6, 2))
    Y = rng.standard_normal((6, 1))
    model = fit_gp(Dataset(X, Y, 0.1), kernel)
    Xs = rng.uniform(0, 2, size=(4, 2))
    pred = predict(model, Xs, full_cov=True)
    assert pred.covariance.shape == (4, 4)
    assert np.allclose(np.diag(pred.covariance),
                       pred.marginal_variances.reshape(-1), atol=1e-12)


@pytest.mark.parametrize("case", ["plain", "block", "full_cov"])
def test_predict_leaves_model_unchanged_and_repeats(rng, case):
    # predict solves and squares in place of its cross-covariance; the
    # factor, the weights and a second call must not see that
    X = rng.uniform(0, 3, size=(12, 2))
    data = Dataset(X, rng.standard_normal((12, 2)), noise_std=0.1)
    if case == "block":
        kernel = DiagonalKernel(THETA, 2).as_expr(2)
        model = augment(data, make_divergence_operator(2),
                        rng.uniform(0, 3, size=(5, 2)), kernel)
        assert model.block is not None
    else:
        model = fit_gp(data, divfree_kernel())
    L, alpha = model.L.copy(), model.alpha.copy()
    Xs = rng.uniform(0, 3, size=(7, 2))
    full_cov = case == "full_cov"
    first = predict(model, Xs, full_cov=full_cov)
    second = predict(model, Xs, full_cov=full_cov)
    assert np.array_equal(model.L, L) and np.array_equal(model.alpha, alpha)
    assert np.array_equal(first.means, second.means)
    assert np.array_equal(first.marginal_variances, second.marginal_variances)
    if full_cov:
        assert np.array_equal(first.covariance, second.covariance)
        assert np.allclose(np.diag(first.covariance),
                           first.marginal_variances.reshape(-1), rtol=1e-10, atol=1e-12)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros((2, 2)), noise_std=-1.0)
