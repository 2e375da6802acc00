"""Tests for SE derivatives and operator-transformed matrix kernels."""

import numpy as np
import pytest

from fieldgp.gp import assemble_gram
from fieldgp.kernels import (
    CurlFreeKernel,
    DerivativeMultiIndex,
    DerivativeOrderError,
    DiagonalKernel,
    MatrixKernelExpr,
    SeHyperparams,
    SumKernel,
    apply_operator_to_expr,
    kernel_from_spec,
    se_derivative,
    se_eval,
    transform_kernel,
)
from fieldgp.operators import (
    OperatorMatrix,
    OperatorPoly,
    construct_g,
    make_divergence_operator,
)

from conftest import fd_operator_rows, mp_se_derivative, multi_indices_up_to

THETA = SeHyperparams(signal_variance=1.3, length_scale=0.8)


def gradient_operator_3d():
    return OperatorMatrix([[OperatorPoly.monomial(3, (1, 0, 0))],
                           [OperatorPoly.monomial(3, (0, 1, 0))],
                           [OperatorPoly.monomial(3, (0, 0, 1))]])


# ---------------------------------------------------------------------------
# scalar kernel and derivatives


def test_se_eval_zero_distance():
    x = np.array([0.3, -1.2])
    assert se_eval(x, x, THETA) == pytest.approx(THETA.signal_variance)


def test_se_eval_unit_case():
    theta = SeHyperparams(1.0, 1.0)
    x, x2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])  # distance sqrt(2)
    assert se_eval(x, x2, theta) == pytest.approx(np.exp(-1.0))


def test_se_eval_matches_direct_formula(rng):
    for _ in range(20):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        direct = THETA.signal_variance * np.exp(
            -0.5 * np.sum((x - x2) ** 2) / THETA.length_scale ** 2)
        assert se_eval(x, x2, THETA) == pytest.approx(direct, rel=1e-14)
        assert se_eval(x, x2, THETA) == pytest.approx(se_eval(x2, x, THETA))


def test_se_derivative_zeroth_order(rng):
    x, x2 = rng.normal(size=2), rng.normal(size=2)
    idx = ((0, 0), (0, 0))
    assert se_derivative(idx, x, x2, THETA) == pytest.approx(se_eval(x, x2, THETA))


def test_se_derivative_odd_order_vanishes_at_coincidence():
    x = np.array([0.7])
    assert se_derivative(((1,), (0,)), x, x, THETA) == 0.0


def test_se_derivative_gradient_pair_formula(rng):
    # d^2/dx_i dx'_j of the SE kernel in three dimensions
    sv, ls = THETA.signal_variance, THETA.length_scale
    for _ in range(20):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        r = x - x2
        base = (sv / ls ** 2) * np.exp(-0.5 * r @ r / ls ** 2)
        for i in range(3):
            for j in range(3):
                alpha = tuple(1 if d == i else 0 for d in range(3))
                beta = tuple(1 if d == j else 0 for d in range(3))
                expected = base * ((i == j) - r[i] * r[j] / ls ** 2)
                got = se_derivative((alpha, beta), x, x2, THETA)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_se_derivative_fd_oracle(rng):
    # every multi-index to combined order 4, against nested central
    # differences run in high precision; tolerance is relative to the
    # larger of the value and the order's natural scale sv/l^order
    configs_per_dim = {1: 34, 2: 33, 3: 33}
    for dim, n_configs in configs_per_dim.items():
        pairs = multi_indices_up_to(dim, 4)
        for _ in range(n_configs):
            sv = float(rng.uniform(0.4, 2.5))
            ls = float(rng.uniform(0.4, 2.5))
            theta = SeHyperparams(sv, ls)
            x = rng.uniform(-1.0, 1.0, dim) * ls
            x2 = x + rng.uniform(-1.5, 1.5, dim) * ls
            for alpha, beta in pairs:
                ours = se_derivative((alpha, beta), x, x2, theta)
                oracle = mp_se_derivative(alpha, beta, x, x2, sv, ls, h_rel=1e-4)
                order = sum(alpha) + sum(beta)
                scale = max(abs(oracle), sv / ls ** order)
                assert abs(ours - oracle) <= 1e-5 * scale


def test_se_derivative_order_limit():
    x = np.zeros(2)
    with pytest.raises(DerivativeOrderError):
        se_derivative(((3, 0), (2, 0)), x, x, THETA)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        SeHyperparams(-1.0, 1.0)
    with pytest.raises(ValueError):
        SeHyperparams(1.0, 0.0)
    with pytest.raises(ValueError):
        SeHyperparams(1.0, 1.0, -1e-3)


# ---------------------------------------------------------------------------
# transformed kernels


def test_transform_kernel_divergence_free_structure():
    # the 2x2 grid of second derivatives induced by the planar annihilator
    G, _ = construct_g(make_divergence_operator(2))
    expr = transform_kernel(G, THETA)
    assert expr.shape == (2, 2)
    assert expr.entries[0][0] == {DerivativeMultiIndex((0, 1), (0, 1)): 1}
    assert expr.entries[0][1] == {DerivativeMultiIndex((0, 1), (1, 0)): -1}
    assert expr.entries[1][0] == {DerivativeMultiIndex((1, 0), (0, 1)): -1}
    assert expr.entries[1][1] == {DerivativeMultiIndex((1, 0), (1, 0)): 1}


def test_transform_kernel_identity_is_base_kernel(rng):
    eye = OperatorMatrix([[OperatorPoly.constant(2, 1)]])
    expr = transform_kernel(eye, THETA)
    x, x2 = rng.normal(size=2), rng.normal(size=2)
    assert expr.eval(x, x2)[0, 0] == pytest.approx(se_eval(x, x2, THETA))


def test_transform_kernel_gradient_structure():
    expr = transform_kernel(gradient_operator_3d(), THETA)
    for i in range(3):
        for j in range(3):
            e_i = tuple(1 if d == i else 0 for d in range(3))
            e_j = tuple(1 if d == j else 0 for d in range(3))
            assert expr.entries[i][j] == {DerivativeMultiIndex(e_i, e_j): 1}


def test_transform_kernel_hermitian_mirror():
    for G in (construct_g(make_divergence_operator(2))[0],
              construct_g(make_divergence_operator(3))[0],
              gradient_operator_3d()):
        expr = transform_kernel(G, THETA)
        n = expr.shape[0]
        for i in range(n):
            for j in range(n):
                mirrored = {DerivativeMultiIndex(idx.beta, idx.alpha): c
                            for idx, c in expr.entries[j][i].items()}
                assert expr.entries[i][j] == mirrored


def test_matrix_kernel_symmetry(rng):
    G, _ = construct_g(make_divergence_operator(2))
    expr = transform_kernel(G, THETA)
    for _ in range(20):
        x, x2 = rng.normal(size=2), rng.normal(size=2)
        a = expr.eval(x, x2)
        b = expr.eval(x2, x)
        assert np.allclose(a, b.T, rtol=0, atol=1e-15)


def test_curl_free_expr_at_coincidence():
    expr = transform_kernel(gradient_operator_3d(), THETA)
    x = np.array([0.4, -0.1, 2.0])
    expected = THETA.signal_variance / THETA.length_scale ** 2 * np.eye(3)
    assert np.allclose(expr.eval(x, x), expected, rtol=1e-14)


def test_divergence_free_expr_fd_columns(rng):
    # applying the constraint row to each kernel column vanishes,
    # at 100 random point pairs, relative to the kernel scale
    F = make_divergence_operator(2)
    G, _ = construct_g(F)
    expr = transform_kernel(G, THETA)
    scale = THETA.signal_variance / THETA.length_scale ** 2
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        x2 = rng.uniform(-1, 1, 2)
        for col in range(2):
            rows = fd_operator_rows(F, lambda p: expr.eval(p, x2)[:, col], x,
                                    h=1e-4 * THETA.length_scale)
            assert np.max(np.abs(rows)) <= 1e-5 * scale


def test_eval_pairwise_matches_pointwise(rng):
    expr = transform_kernel(gradient_operator_3d(), THETA)
    X = rng.normal(size=(4, 3))
    X2 = rng.normal(size=(5, 3))
    table = expr.eval_pairwise(X, X2)
    for a in range(4):
        for b in range(5):
            assert np.allclose(table[a, b], expr.eval(X[a], X2[b]), rtol=1e-14)


# ---------------------------------------------------------------------------
# closed forms


def test_curl_free_closed_form_zero_displacement():
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(CurlFreeKernel(THETA).eval(x, x),
                       THETA.signal_variance * np.eye(3))


def test_curl_free_closed_form_matches_transformed(rng):
    expr = transform_kernel(gradient_operator_3d(), THETA)
    ls2 = THETA.length_scale ** 2
    for _ in range(100):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        closed = CurlFreeKernel(THETA).eval(x, x2)
        derived = ls2 * expr.eval(x, x2)
        assert np.max(np.abs(closed - derived)) <= 1e-10 * np.max(np.abs(closed))


def test_curl_free_closed_form_decay():
    x = np.zeros(3)
    far = np.array([50.0, 0.0, 0.0])
    assert np.max(np.abs(CurlFreeKernel(THETA).eval(x, far))) < 1e-200


def test_diagonal_kernel_values(rng):
    x = rng.normal(size=2)
    assert np.allclose(DiagonalKernel(THETA, 2).eval(x, x),
                       THETA.signal_variance * np.eye(2))
    x2 = rng.normal(size=2)
    k = DiagonalKernel(THETA, 3).eval(x, x2)
    assert k[0, 1] == k[1, 0] == k[0, 2] == 0.0
    assert DiagonalKernel(THETA, 1).eval(x, x2)[0, 0] == pytest.approx(
        se_eval(x, x2, THETA))


# ---------------------------------------------------------------------------
# operator application on kernel expressions


def test_apply_operator_divergence_free_cancels():
    F = make_divergence_operator(2)
    G, _ = construct_g(F)
    expr = transform_kernel(G, THETA)
    assert apply_operator_to_expr(F, expr, side="left").is_zero()
    assert apply_operator_to_expr(F, expr, side="right").is_zero()


def test_apply_operator_identity_left():
    eye = OperatorMatrix([[OperatorPoly.constant(2, 1), OperatorPoly.zero(2)],
                          [OperatorPoly.zero(2), OperatorPoly.constant(2, 1)]])
    expr = DiagonalKernel(THETA, 2).as_expr(2)
    applied = apply_operator_to_expr(eye, expr, side="left")
    assert applied.entries == expr.entries


def test_apply_operator_divergence_on_diagonal(rng):
    F = make_divergence_operator(2)
    expr = DiagonalKernel(THETA, 2).as_expr(2)
    applied = apply_operator_to_expr(F, expr, side="left")
    assert applied.shape == (1, 2)
    assert applied.entries[0][0] == {DerivativeMultiIndex((1, 0), (0, 0)): 1}
    assert applied.entries[0][1] == {DerivativeMultiIndex((0, 1), (0, 0)): 1}
    for _ in range(5):
        x, x2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        got = applied.eval(x, x2)
        # rows of F applied to each kernel column, compared entrywise
        scalar = lambda p, c: DiagonalKernel(THETA, 2).eval(p, x2)[:, c]
        for c in range(2):
            fd_c = fd_operator_rows(F, lambda p: scalar(p, c), x, h=1e-5)
            assert got[0, c] == pytest.approx(float(fd_c[0]), rel=1e-6, abs=1e-9)


def test_apply_operator_order_overflow():
    G, _ = construct_g(make_divergence_operator(2))
    expr = transform_kernel(G, THETA)          # order 2 per entry
    third = OperatorMatrix([[OperatorPoly.monomial(2, (3, 0)),
                             OperatorPoly.monomial(2, (0, 3))]])
    with pytest.raises(DerivativeOrderError):
        apply_operator_to_expr(third, expr, side="left")


def test_transform_kernel_order_overflow():
    cubic = OperatorMatrix([[OperatorPoly.monomial(2, (3, 0))]])
    with pytest.raises(DerivativeOrderError):
        transform_kernel(cubic, THETA)


# ---------------------------------------------------------------------------
# positive semidefiniteness and per-column priors


@pytest.mark.parametrize("kernel_factory", [
    lambda: DiagonalKernel(THETA, 2),
    lambda: transform_kernel(construct_g(make_divergence_operator(2))[0], THETA),
    lambda: CurlFreeKernel(THETA),
])
def test_gram_psd_before_jitter(kernel_factory, rng):
    kernel = kernel_factory()
    dim = 3 if kernel.shape[0] == 3 else 2
    X = rng.uniform(0, 4, size=(30, dim))
    gram = assemble_gram(kernel, X, noise_variance=0.0)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_per_column_thetas_sum(rng):
    G, _ = construct_g(make_divergence_operator(3))
    thetas = [SeHyperparams(0.5, 0.7), SeHyperparams(1.0, 1.1),
              SeHyperparams(2.0, 0.9)]
    summed = transform_kernel(G, thetas[0], per_column_thetas=thetas)
    assert isinstance(summed, SumKernel)
    x, x2 = rng.normal(size=3), rng.normal(size=3)
    parts = [transform_kernel(OperatorMatrix([[G.entry(j, c)] for j in range(3)]),
                              thetas[c]).eval(x, x2)
             for c in range(3)]
    assert np.allclose(summed.eval(x, x2), sum(parts))
    shared = transform_kernel(G, THETA,
                              per_column_thetas=[THETA, THETA, THETA])
    assert np.allclose(shared.eval(x, x2), transform_kernel(G, THETA).eval(x, x2))


# ---------------------------------------------------------------------------
# kernel specs


def test_kernel_from_spec_variants():
    hyper = THETA.to_dict()
    diag = kernel_from_spec({"type": "diagonal", "out_dim": 2, "hyperparams": hyper})
    assert isinstance(diag, DiagonalKernel) and diag.shape == (2, 2)
    curl = kernel_from_spec({"type": "curl_free_3d", "hyperparams": hyper})
    assert isinstance(curl, CurlFreeKernel)
    f_spec = make_divergence_operator(2).to_json_dict()
    trans = kernel_from_spec({"type": "transformed", "g_operator": "auto-from-F",
                              "f_operator": f_spec, "hyperparams": hyper})
    assert isinstance(trans, MatrixKernelExpr) and trans.shape == (2, 2)
    explicit = kernel_from_spec({
        "type": "transformed",
        "g_operator": construct_g(make_divergence_operator(2))[0].to_json_dict(),
        "hyperparams": hyper})
    assert explicit.entries == trans.entries
    with pytest.raises(ValueError):
        kernel_from_spec({"type": "mystery", "hyperparams": hyper})
    with pytest.raises(ValueError):
        kernel_from_spec({"type": "transformed", "hyperparams": hyper,
                          "g_operator": "auto-from-F"})
