"""Tests for Gram assembly, factorization, likelihood, fitting, prediction."""

import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldgp import gp, kernels
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
from fieldgp.kernels import (CurlFreeKernel, DiagonalKernel, MatrixKernelExpr, SeHyperparams,
                             covariance_operator, field_family, transform_kernel)
from fieldgp.operators import (OperatorMatrix, OperatorPoly, construct_g, make_curl_operator_3d,
                               make_divergence_operator)

from conftest import fd_divergence
from predict_reference import eager_predict

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
    L, jitter = cholesky_jitter(M.copy())   # the factor overwrites its argument
    assert jitter > 0.0
    assert np.allclose(L @ L.T, M + jitter * np.eye(6), rtol=1e-10, atol=1e-12)


def test_cholesky_spd_reconstruction(rng):
    A = rng.standard_normal((8, 8))
    M = A @ A.T + 8 * np.eye(8)
    L, jitter = cholesky_jitter(M.copy())
    assert jitter == 0.0
    assert np.max(np.abs(L @ L.T - M)) <= 1e-10 * np.max(np.abs(M))


@pytest.mark.parametrize("n", [6, 40, 300])
def test_cholesky_jitter_factors_in_place_on_schedule(rng, n):
    # a rank-one M fails to factor; the factor of M + jitter I it returns is,
    # bit for bit, a fresh in-place factor of that matrix, in M's own memory,
    # and the jitter is on the schedule base * tr(M)/n * 10^k
    v = rng.standard_normal(n)
    M = np.outer(v, v)
    A = M.copy()
    L, jitter = cholesky_jitter(A)
    schedule = [JITTER_BASE_SCALE * (np.trace(M) / n)]
    for _ in range(JITTER_MAX_ESCALATIONS):
        schedule.append(schedule[-1] * 10.0)
    assert jitter in schedule
    fresh, info = gp.lapack.dpotrf((M + jitter * np.eye(n)).T, lower=1, clean=1)
    assert info == 0
    assert np.array_equal(L, fresh)
    assert np.shares_memory(L, A) and L.flags.f_contiguous


def test_cholesky_rejects_non_finite_failure():
    # a NaN that stops the factorization is reported as the solve would
    M = np.eye(4)
    M[0, 0], M[3, 0], M[0, 3] = -1.0, np.nan, np.nan
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        cholesky_jitter(M)


def test_cholesky_not_pd():
    with pytest.raises(NotPositiveDefinite):
        cholesky_jitter(-np.eye(3))


def test_cholesky_policy_escalation_count(rng):
    # the jitter is base * tr(M)/n * 10^k, k <= the maximum escalation,
    # formed by repeated multiplication by 10 (so compared exactly)
    v = rng.standard_normal(40)
    M = np.outer(v, v)
    _, jitter = cholesky_jitter(M.copy())
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


def test_fit_counts_every_objective_evaluation(rng, monkeypatch):
    X = rng.uniform(0, 4, size=(12, 2))
    Y = rng.standard_normal((12, 1))
    data = Dataset(X, Y, noise_std=0.1)
    calls = []

    def counting_cholesky(*args, **kwargs):
        calls.append(None)
        return cholesky_jitter(*args, **kwargs)

    # every evaluation factors a Gram matrix, and none fails before that here
    monkeypatch.setattr(gp, "cholesky_jitter", counting_cholesky)
    fit = fit_hyperparameters(data, lambda th: DiagonalKernel(th, 1),
                              SeHyperparams(1.0, 1.0, 0.01),
                              OptConfig(restarts=2, maxiter=60, seed=3))
    assert fit.n_evals == len(calls) > 0


def _scored(lml):
    """The objective's score of one evaluation: -inf where it raised."""
    try:
        return lml()
    except (NotPositiveDefinite, ValueError, OverflowError):
        return -np.inf


#: G = (d1^2, d2^2, d3^2)^T: prior variance He_4(0) sv = 3 sv, inf at sv 1e308
_OVERFLOWING_G = OperatorMatrix([[OperatorPoly.monomial(3, [2 * (d == i) for d in range(3)])]
                                 for i in range(3)])


@st.composite
def _evidence_problems(draw):
    """(family, data, theta, kind) over every family kind the fits use.

    With ``duplicate`` the first point and its output repeat and the noise
    is 0, so the Gram matrix is singular and its factor may need jitter.
    """
    kind = draw(st.sampled_from(["diagonal1", "diagonal2", "diagonal3",
                                 "div2d", "curl_free", "overflow"]))
    if kind.startswith("diagonal"):
        dim = draw(st.integers(1, 3))
        family = lambda th, k=int(kind[-1]): DiagonalKernel(th, k, in_dim=dim)
    elif kind == "div2d":
        dim, family = 2, field_family(construct_g(make_divergence_operator(2))[0])
    elif kind == "curl_free":
        dim, family = 3, CurlFreeKernel
    else:
        dim, family = 3, field_family(_OVERFLOWING_G)
    n = draw(st.integers(1, 10))
    ell = draw(st.floats(0.2, 3.0))
    duplicate = draw(st.booleans())
    # with a duplicate, sv is a square of a short binary fraction, so the
    # repeated pivot of the scalar kernel cancels to exactly 0
    sv = 1e308 if kind == "overflow" else draw(
        st.sampled_from([0.25, 1.0, 2.25, 4.0]) if duplicate else st.floats(1e-3, 1e3))
    noise = 0.0 if duplicate else draw(st.sampled_from([0.0, 1e-8, 1e-2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.uniform(0.0, 4.0, size=(n, dim))
    Y = rng.standard_normal((n, family(THETA).shape[0]))
    if duplicate:
        X, Y = np.insert(X, 1, X[0], axis=0), np.insert(Y, 1, Y[0], axis=0)
    return family, Dataset(X, Y), SeHyperparams(sv, ell, noise), kind


@settings(max_examples=200, deadline=None)
@given(_evidence_problems())
def test_fit_evidence_equals_lml_of_fitted_model(problem):
    # each objective evaluation scores what the model fit_gp builds scores,
    # bit for bit, and -inf wherever building that model raises
    family, data, theta, kind = problem
    evidence = gp._Evidence(data, family, SeHyperparams(1.0, 1.0, theta.noise_variance))
    fitted = _scored(lambda: log_marginal_likelihood(
        fit_gp(data, family(theta), noise_variance=theta.noise_variance)))
    assert _scored(lambda: evidence(theta)) == fitted
    if kind == "overflow":
        # a non-finite Gram is an error, as cho_solve's check makes it in fit_gp
        assert fitted == -np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            evidence(theta)
    elif kind.startswith("diagonal") and len(data.inputs) > 1 and np.array_equal(
            data.inputs[0], data.inputs[1]):
        # the duplicate pivot is certain to cancel only for the Kronecker
        # factor's scalar kernel
        assert fit_gp(data, family(theta), noise_variance=0.0).jitter > 0


def test_fit_forms_pair_differences_once(rng, monkeypatch):
    # the differences of the training inputs are formed when the fit
    # starts, and every evaluation evaluates the kernel once from them
    X = rng.uniform(0, 4, size=(12, 2))
    data = Dataset(X, np.c_[np.sin(X[:, 0]), np.cos(X[:, 1])], noise_std=0.1)
    formed, evaluated = [], []

    def counting_differences(*args):
        formed.append(None)
        return kernels.pair_differences(*args)

    monkeypatch.setattr(gp, "pair_differences", counting_differences)
    for cls in (DiagonalKernel, MatrixKernelExpr):
        def counted(self, *args, _original=cls.eval_pairwise):
            evaluated.append(args[2] is not None)
            return _original(self, *args)
        monkeypatch.setattr(cls, "eval_pairwise", counted)
    for family in (lambda th: DiagonalKernel(th, 2),
                   field_family(construct_g(make_divergence_operator(2))[0])):
        formed.clear()
        evaluated.clear()
        fit = fit_hyperparameters(data, family, SeHyperparams(1.0, 1.0, 0.01),
                                  OptConfig(restarts=2, maxiter=40, seed=3))
        assert fit.discarded == {}
        assert len(formed) == 1
        assert evaluated == [True] * fit.n_evals


def test_fit_counts_discarded_evaluations_by_type(rng, monkeypatch):
    # (1 + d^2) k is negative at r = 0 for l < 1, so those fits fail while
    # longer length scales factor; every evaluation that raised is counted
    X = rng.uniform(0, 6, size=(8, 1))
    data = Dataset(X, np.sin(X), noise_std=0.3)
    operator = OperatorMatrix([[OperatorPoly(1, {(0,): 1, (2,): 1})]])
    raised = []

    def recording(self, theta, _original=gp._Evidence.__call__):
        try:
            return _original(self, theta)
        except Exception as exc:
            raised.append(type(exc).__name__)
            raise

    monkeypatch.setattr(gp._Evidence, "__call__", recording)
    fit = fit_hyperparameters(data, lambda th: MatrixKernelExpr(operator, th),
                              SeHyperparams(1.0, 3.0, 0.09),
                              OptConfig(restarts=4, maxiter=60, seed=2))
    assert np.isfinite(fit.lml)
    assert fit.discarded.get("NotPositiveDefinite", 0) > 0
    assert fit.discarded == Counter(raised)
    assert sum(fit.discarded.values()) < fit.n_evals


@pytest.mark.parametrize("change", ["operator", "order"])
def test_fit_rejects_family_that_changes_with_theta(rng, change):
    G, _ = construct_g(make_divergence_operator(2))
    calls = []

    def family(theta):
        calls.append(theta)
        if len(calls) == 1:
            return MatrixKernelExpr(covariance_operator(G), theta, 2)
        if change == "operator":
            return DiagonalKernel(theta, 2, in_dim=2)
        return MatrixKernelExpr(covariance_operator(G), theta, 0)

    data = Dataset(rng.uniform(0, 4, size=(6, 2)), rng.standard_normal((6, 2)), 0.1)
    with pytest.raises(ValueError, match="operator or order"):
        fit_hyperparameters(data, family, SeHyperparams(1.0, 1.0, 0.01),
                            OptConfig(restarts=1, maxiter=10, seed=0))


def test_fit_accepts_equal_operator_built_per_theta(rng):
    # an operator rebuilt for every theta is == to the first, not the same
    # object: the fit is the one the cached family gives
    G, _ = construct_g(make_divergence_operator(2))
    P = covariance_operator(G)
    X = rng.uniform(0, 4, size=(10, 2))
    data = Dataset(X, np.c_[np.sin(X[:, 1]), np.sin(X[:, 0])], noise_std=0.05)
    kwargs = dict(init=SeHyperparams(1.0, 1.0, 0.0025), opt_config=OptConfig(maxiter=40))
    cached = fit_hyperparameters(data, field_family(G), **kwargs)
    rebuilt = fit_hyperparameters(
        data, lambda th: MatrixKernelExpr(OperatorMatrix(P.entries), th, 2), **kwargs)
    assert (rebuilt.theta, rebuilt.lml, rebuilt.n_evals) == (
        cached.theta, cached.lml, cached.n_evals)


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


def test_fit_all_restarts_fail(rng):
    # -1 applied to k: negative definite blocks, so factorization can never
    # succeed (the identity would take the Kronecker path, at +k)
    minus_one = OperatorMatrix([[OperatorPoly.constant(2, -1)]])
    data = Dataset(rng.uniform(0, 1, (6, 2)), rng.standard_normal((6, 1)), 0.0)
    with pytest.raises(RuntimeError, match="every restart"):
        fit_hyperparameters(data, lambda th: MatrixKernelExpr(minus_one, th),
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


def test_import_leaves_scipy_optimize_unloaded():
    # only a hyperparameter fit needs it; construct-g, check-kernel and
    # predict --no-fit never fit
    code = "import sys, fieldgp; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "False"


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
    pred = predict(model, Xs)
    assert pred.covariance.shape == (4, 4)
    assert np.allclose(np.diag(pred.covariance),
                       pred.marginal_variances.reshape(-1), atol=1e-12)


@pytest.mark.parametrize("case", ["plain", "block", "full_cov"])
def test_predict_leaves_model_unchanged_and_repeats(rng, case):
    # reading the variances solves in place of a cross-covariance; the
    # factor, the weights and a second call must not see that
    X = rng.uniform(0, 3, size=(12, 2))
    data = Dataset(X, rng.standard_normal((12, 2)), noise_std=0.1)
    if case == "block":
        kernel = DiagonalKernel(THETA, 2, in_dim=2)
        model = augment(data, make_divergence_operator(2),
                        rng.uniform(0, 3, size=(5, 2)), kernel)
        assert model.block is not None
    else:
        model = fit_gp(data, divfree_kernel())
    L, alpha = model.L.copy(), model.alpha.copy()
    Xs = rng.uniform(0, 3, size=(7, 2))
    full_cov = case == "full_cov"
    first = predict(model, Xs)
    second = predict(model, Xs)
    if full_cov:
        assert np.array_equal(first.covariance, second.covariance)
    assert np.array_equal(first.means, second.means)
    assert np.array_equal(first.marginal_variances, second.marginal_variances)
    assert np.array_equal(model.L, L) and np.array_equal(model.alpha, alpha)
    if full_cov:
        assert np.allclose(np.diag(first.covariance),
                           first.marginal_variances.reshape(-1), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("case", ["plain", "kronecker", "block", "dropped_rows"])
def test_variances_solved_on_read_match_eager_prediction(rng, monkeypatch, case):
    # the covariance and the variances, read in either order, are bit for bit
    # those of the eager prediction; the points are copied at the call
    dim = 3 if case == "dropped_rows" else 2
    X = rng.uniform(0, 3, size=(12, dim))
    data = Dataset(X, rng.standard_normal((12, dim)), noise_std=0.1)
    if case == "plain":
        model = fit_gp(data, divfree_kernel())
    elif case == "kronecker":
        model = fit_gp(data, DiagonalKernel(THETA, 2))
        assert model.repeats == 2
    elif case == "block":
        model = augment(data, make_divergence_operator(2),
                        rng.uniform(0, 3, size=(5, 2)), DiagonalKernel(THETA, 2, in_dim=2))
    else:
        # crowded curl points, 3 rows each, five of them twice: a point and
        # its twin keep 3 of their 6 rows, and the block's cross kernel is
        # evaluated in several chunks of prediction points
        pts = rng.uniform(0, 0.3, size=(30, 3))
        model = augment(data, make_curl_operator_3d(), np.vstack([pts, pts[:5]]),
                        DiagonalKernel(THETA, 3, in_dim=3))
        assert np.any(np.bincount(model.block.rows // 3, minlength=35) < 3)
        monkeypatch.setattr(gp, "_CROSS_CHUNK_ENTRIES", 500)
    L, alpha = model.L.copy(), model.alpha.copy()
    Xs = rng.uniform(0, 3, size=(7, dim))
    means, variances, covariance = eager_predict(model, Xs, full_cov=True)
    caller_points = Xs.copy()
    cov_first, var_first = predict(model, caller_points), predict(model, Xs)
    caller_points[:] = 0.0
    assert cov_first.covariance.shape == (7 * dim,) * 2
    assert var_first.marginal_variances.shape == (7, dim)
    for pred in (cov_first, var_first):
        assert np.array_equal(pred.means, means)
        assert np.array_equal(pred.marginal_variances, variances)
        assert np.array_equal(pred.covariance, covariance)
    assert np.array_equal(model.L, L) and np.array_equal(model.alpha, alpha)


class _PoisonedCross:
    """A kernel with ``value`` in one entry of every block it evaluates."""

    def __init__(self, kernel, value):
        self.kernel, self.value, self.shape = kernel, value, kernel.shape

    def eval_pairwise(self, X1, X2):
        k = self.kernel.eval_pairwise(X1, X2)
        k[-1, 0, -1, 0] = self.value
        return k


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["data", "block"])
def test_predict_rejects_non_finite_cross_covariance(rng, value, where):
    # the means need no triangular solve, whose finiteness check would
    # otherwise be the only one between a non-finite kernel value and them
    X = rng.uniform(0, 3, size=(8, 2))
    data = Dataset(X, rng.standard_normal((8, 2)), noise_std=0.1)
    if where == "data":
        model = fit_gp(data, divfree_kernel())
        model.factor = _PoisonedCross(model.factor, value)
    else:
        model = augment(data, make_divergence_operator(2),
                        rng.uniform(0, 3, size=(3, 2)), DiagonalKernel(THETA, 2, in_dim=2))
        model.block = model.block._replace(cross=_PoisonedCross(model.block.cross, value))
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        predict(model, rng.uniform(0, 3, size=(4, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["cross", "prior"])
def test_fit_rejects_non_finite_block(rng, value, where):
    # a non-finite pivot would stop the pivoted factorization like a small one
    X = rng.uniform(0, 3, size=(8, 2))
    data = Dataset(X, rng.standard_normal((8, 2)), noise_std=0.1)
    kernel = DiagonalKernel(THETA, 2, in_dim=2)
    model = augment(data, make_divergence_operator(2), rng.uniform(0, 3, size=(3, 2)), kernel)
    block = model.block._replace(**{where: _PoisonedCross(getattr(model.block, where), value)})
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        fit_gp(data, kernel, block=block)


# ---------------------------------------------------------------------------
# the Kronecker factorization of independent-output kernels


@st.composite
def _kronecker_problems(draw):
    """An independent-output GP problem, well conditioned apart from one duplicate.

    The distinct inputs sit on a grid 2.5 length scales apart, so their
    Gram matrix is diagonally dominant.  With ``duplicate`` the first
    point and its output are repeated, and with zero noise the jitter
    must escalate: sv is a square of a short binary fraction, so the
    repeated pivot cancels to exactly 0 in either factorization.
    """
    k, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim),
                          min_size=1, max_size=5, unique=True))
    ell = draw(st.floats(0.3, 2.0))
    sv = draw(st.sampled_from([0.25, 1.0, 2.25, 4.0]))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-2]))
    duplicate = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = 2.5 * ell * np.array(cells, dtype=float)
    Y = rng.standard_normal((len(X), k))
    if duplicate:
        X, Y = np.insert(X, 1, X[0], axis=0), np.insert(Y, 1, Y[0], axis=0)
    Xs = rng.uniform(-ell, 2.5 * ell * 3 + ell, size=(draw(st.integers(1, 4)), dim))
    return DiagonalKernel(SeHyperparams(sv, ell), k, in_dim=dim), X, Y, noise, Xs


@settings(max_examples=150, deadline=None)
@given(_kronecker_problems())
def test_kronecker_path_matches_dense_oracle(problem):
    # the N x N factor against numpy on the NK x NK Gram matrix the dense
    # path factors: same jitter, LML, means, variances and covariance
    kernel, X, Y, noise, Xs = problem
    n, k = Y.shape
    model = fit_gp(Dataset(X, Y), kernel, noise_variance=noise)
    assert model.L.shape == (n, n) and model.joint_dim == n * k

    gram = assemble_gram(kernel, X, noise)
    _, jitter = cholesky_jitter(gram.copy())
    assert model.jitter == jitter
    if noise == 0 and n >= 2 and np.array_equal(X[0], X[1]):
        assert jitter > 0
    A = gram + jitter * np.eye(n * k)
    y = Y.reshape(-1)
    alpha = np.linalg.solve(A, y)
    lml = -0.5 * y @ alpha - 0.5 * np.linalg.slogdet(A)[1] - 0.5 * n * k * np.log(2 * np.pi)
    # a duplicate's pivot is only the noise or jitter that lifts it off zero,
    # computed with a rounding error ~eps * scale by either factorization:
    # the log-determinant is good to ~eps times the condition number
    eigenvalues = np.linalg.eigvalsh(A)
    slack = 1e2 * n * k * np.finfo(float).eps * eigenvalues[-1] / eigenvalues[0]
    assert abs(log_marginal_likelihood(model) - lml) <= 1e-10 * abs(lml) + slack

    C = cross_gram(kernel, Xs, X)
    cov = cross_gram(kernel, Xs, Xs) - C @ np.linalg.solve(A, C.T)
    pred = predict(model, Xs)
    np.testing.assert_allclose(pred.means.reshape(-1), C @ alpha, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(pred.covariance, cov, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(pred.marginal_variances.reshape(-1),
                               np.maximum(np.diag(cov), 0.0), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("case", ["kronecker", "curl_free", "augment"])
def test_fit_factor_is_fortran_lower_without_numpy_cholesky(rng, monkeypatch, case):
    # every factor is LAPACK's, in Fortran order with an exactly zero strict
    # upper triangle, and nothing calls numpy's Cholesky
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    X = rng.uniform(0, 3, size=(6, 3))
    data = Dataset(X, rng.standard_normal((6, 3)), noise_std=0.1)
    if case == "augment":
        model = augment(data, make_curl_operator_3d(), rng.uniform(0, 3, size=(2, 3)),
                        DiagonalKernel(THETA, 3, in_dim=3))
    else:
        model = fit_gp(data, DiagonalKernel(THETA, 3) if case == "kronecker"
                       else CurlFreeKernel(THETA))
    L = model.L
    assert L.flags.f_contiguous
    assert not np.triu(L, 1).any()
    if case != "augment":
        gram = assemble_gram(model.factor, X, 0.01)
        assert np.max(np.abs(L @ L.T - gram)) <= 1e-12 * np.max(gram)


def test_block_tolerance_reads_the_gram_diagonal(rng, monkeypatch):
    # the data's Gram matrix is factored in place: the block's tolerance must
    # come from its diagonal (sv + noise), not from the factor's (about sqrt)
    seen = []
    factor_block = gp._factor_block
    monkeypatch.setattr(gp, "_factor_block", lambda *args: seen.append(args[3])
                        or factor_block(*args))
    X = rng.uniform(0, 3, size=(6, 2))
    data = Dataset(X, rng.standard_normal((6, 2)), noise_std=0.1)
    augment(data, make_divergence_operator(2), rng.uniform(0, 3, size=(3, 2)),
            DiagonalKernel(SeHyperparams(4.0, 1.0), 2, in_dim=2))
    assert seen == [4.0 + 0.1 ** 2]


@pytest.mark.parametrize("case", ["curl_free", "transformed", "augment"])
def test_dense_path_factors_the_joint_matrix(rng, case):
    # only the identity kernel without an observation block is factored as N x N
    X = rng.uniform(0, 3, size=(6, 3))
    data = Dataset(X, rng.standard_normal((6, 3)), noise_std=0.1)
    if case == "augment":
        model = augment(data, make_curl_operator_3d(), rng.uniform(0, 3, size=(2, 3)),
                        DiagonalKernel(THETA, 3, in_dim=3))
        assert model.L.shape == (6 * 3 + 2 * 3,) * 2
    else:
        kernel = (CurlFreeKernel(THETA) if case == "curl_free" else
                  transform_kernel(construct_g(make_divergence_operator(3))[0], THETA))
        model = fit_gp(data, kernel)
        assert model.L.shape == (6 * 3,) * 2
    assert model.repeats == 1 and model.joint_dim == model.L.shape[0]


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros((2, 2)), noise_std=-1.0)
