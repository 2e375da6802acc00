"""Tests for SE derivatives and operator-transformed matrix kernels."""

import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldgp.checks import fd_apply_operator
from fieldgp.gp import assemble_gram
from fieldgp.kernels import (
    CurlFreeKernel,
    DiagonalKernel,
    MatrixKernelExpr,
    SeHyperparams,
    apply_operator_to_expr,
    covariance_operator,
    field_family,
    identity_factor,
    kernel_family_from_spec,
    se_derivative,
    transform_kernel,
)
from fieldgp.operators import (
    DimensionMismatch,
    NoAnnihilatorFound,
    OperatorMatrix,
    OperatorPoly,
    construct_g,
    make_curl_operator_3d,
    make_divergence_operator,
    symbolic_product,
)

from conftest import (column_covariance_sum, fd_operator_rows, mp_diff_se_derivative,
                      mp_se_derivative, multi_indices_up_to)
from kernel_reference import curl_free_closed_form, reference_pairwise

THETA = SeHyperparams(signal_variance=1.3, length_scale=0.8)


def gradient_operator_3d():
    return OperatorMatrix([[OperatorPoly.monomial(3, (1, 0, 0))],
                           [OperatorPoly.monomial(3, (0, 1, 0))],
                           [OperatorPoly.monomial(3, (0, 0, 1))]])


def se_direct(x, x2, theta):
    """The SE kernel value from its formula."""
    return theta.signal_variance * np.exp(
        -0.5 * np.sum((x - x2) ** 2) / theta.length_scale ** 2)


def se_value(x, x2, theta):
    """The SE kernel value as its derivative of order zero."""
    zero = (0,) * len(x)
    return se_derivative((zero, zero), x, x2, theta)


# ---------------------------------------------------------------------------
# scalar kernel and derivatives


def test_se_eval_zero_distance():
    x = np.array([0.3, -1.2])
    assert se_value(x, x, THETA) == pytest.approx(THETA.signal_variance)


def test_se_eval_unit_case():
    theta = SeHyperparams(1.0, 1.0)
    x, x2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])  # distance sqrt(2)
    assert se_value(x, x2, theta) == pytest.approx(np.exp(-1.0))


def test_se_eval_matches_direct_formula(rng):
    for _ in range(20):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        assert se_value(x, x2, THETA) == pytest.approx(se_direct(x, x2, THETA), rel=1e-14)
        assert se_value(x, x2, THETA) == pytest.approx(se_value(x2, x, THETA))


def test_se_derivative_zeroth_order(rng):
    x, x2 = rng.normal(size=2), rng.normal(size=2)
    idx = ((0, 0), (0, 0))
    assert se_derivative(idx, x, x2, THETA) == pytest.approx(se_direct(x, x2, THETA))


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


def test_se_derivative_high_order_mpmath_oracle():
    # orders 5-8 in 1-3 D against mpmath.diff at 40 digits, the order spread
    # over up to three of the 2D slots of (alpha, beta) (mpmath's cost grows
    # steeply with the slot count); the tolerance is relative to the larger
    # of the value and the order's scale sv/l^order
    rng = np.random.default_rng(58)
    for order in range(5, 9):
        for dim in (1, 2, 3):
            for _ in range(2):
                combined = [0] * (2 * dim)
                cuts = np.sort(rng.integers(0, order + 1, size=2))
                for slot, part in zip(rng.integers(0, 2 * dim, size=3),
                                      np.diff([0, *cuts, order])):
                    combined[slot] += int(part)
                alpha, beta = tuple(combined[:dim]), tuple(combined[dim:])
                sv, ls = float(rng.uniform(0.4, 2.5)), float(rng.uniform(0.4, 2.5))
                x = rng.uniform(-1.0, 1.0, dim) * ls
                x2 = x + rng.uniform(-1.5, 1.5, dim) * ls
                ours = se_derivative((alpha, beta), x, x2, SeHyperparams(sv, ls))
                oracle = mp_diff_se_derivative(alpha, beta, x, x2, sv, ls)
                scale = max(abs(oracle), sv / ls ** order)
                assert abs(ours - oracle) <= 1e-12 * scale, (alpha, beta)


def test_se_derivative_order_limit():
    x = np.zeros(2)
    with pytest.raises(DimensionMismatch):
        se_derivative(((1, 0), (0,)), x, x, THETA)
    with pytest.raises(ValueError, match="non-negative"):
        se_derivative(((-1, 0), (1, 0)), x, x, THETA)  # sums to a valid order 0


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
    # the 2x2 grid of second derivatives in d/dr induced by the planar
    # annihilator: d/dx' = -d/dr, so d_y d_y' k is -d_y^2 k
    G, _ = construct_g(make_divergence_operator(2))
    expr = transform_kernel(G, THETA)
    assert expr.shape == (2, 2)
    assert expr.entries[0][0] == {(0, 2): -1}
    assert expr.entries[0][1] == {(1, 1): 1}
    assert expr.entries[1][0] == {(1, 1): 1}
    assert expr.entries[1][1] == {(2, 0): -1}


def test_transform_kernel_identity_is_base_kernel(rng):
    eye = OperatorMatrix([[OperatorPoly.constant(2, 1)]])
    expr = transform_kernel(eye, THETA)
    x, x2 = rng.normal(size=2), rng.normal(size=2)
    assert expr.eval(x, x2)[0, 0] == pytest.approx(se_direct(x, x2, THETA))


def test_transform_kernel_gradient_structure():
    expr = transform_kernel(gradient_operator_3d(), THETA)
    for i in range(3):
        for j in range(3):
            e_ij = tuple((d == i) + (d == j) for d in range(3))
            assert expr.entries[i][j] == {e_ij: -1}


def test_transform_kernel_hermitian_mirror():
    # K_ij(x, x') = K_ji(x', x), and swapping the arguments maps r to -r
    for G in (construct_g(make_divergence_operator(2))[0],
              construct_g(make_divergence_operator(3))[0],
              gradient_operator_3d()):
        expr = transform_kernel(G, THETA)
        n = expr.shape[0]
        for i in range(n):
            for j in range(n):
                mirrored = {mono: -c if sum(mono) % 2 else c
                            for mono, c in expr.entries[j][i].items()}
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
            assert np.allclose(table[a, :, b, :], expr.eval(X[a], X2[b]), rtol=1e-14)


# ---------------------------------------------------------------------------
# closed forms


def test_curl_free_closed_form_zero_displacement():
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(CurlFreeKernel(THETA).eval(x, x),
                       THETA.signal_variance * np.eye(3))


def test_curl_free_closed_form_matches_transformed(rng):
    # the kernel is l^2 grad grad^T k; both sides are checked against the
    # hand-written closed form sv exp(-|u|^2/2) (I - u u^T)
    expr = transform_kernel(gradient_operator_3d(), THETA)
    ls2 = THETA.length_scale ** 2
    for _ in range(100):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        closed = curl_free_closed_form(THETA, x[None], x2[None])[0, 0]
        for got in (CurlFreeKernel(THETA).eval(x, x2), ls2 * expr.eval(x, x2)):
            assert np.max(np.abs(got - closed)) <= 1e-10 * np.max(np.abs(closed))


def test_curl_free_kernel_is_an_expression():
    # operators act on it, and the curl of a gradient field cancels exactly
    kernel = CurlFreeKernel(THETA)
    assert isinstance(kernel, MatrixKernelExpr)
    assert apply_operator_to_expr(make_curl_operator_3d(), kernel, side="left").operator.is_zero()


def test_curl_free_closed_form_decay():
    x = np.zeros(3)
    far = np.array([50.0, 0.0, 0.0])
    assert np.max(np.abs(CurlFreeKernel(THETA).eval(x, far))) < 1e-200


_CURL_SPECS = (
    {"type": "curl_free_3d"},
    {"type": "transformed", "g_operator": "auto-from-F",
     "f_operator": make_curl_operator_3d().to_json_dict()},
)


@settings(max_examples=60, deadline=None)
@given(log_sv=st.floats(-10.0, 10.0), log_ls=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_curl_free_kernels_are_the_field_family_bitwise(log_sv, log_ls, seed):
    # the class, the curl_free_3d spec and the auto-from-F curl spec are the
    # one field family of the curl, at the field's variance sv
    theta = SeHyperparams(float(np.exp(log_sv)), float(np.exp(log_ls)), 1e-6)
    want = field_family(construct_g(make_curl_operator_3d())[0])(theta)
    assert want.theta == theta and want.order == 2
    spec_kernels = []
    for spec in _CURL_SPECS:
        family, spec_theta = kernel_family_from_spec(
            {**spec, "hyperparams": dataclasses.asdict(theta)})
        assert spec_theta == theta
        spec_kernels.append(family(spec_theta))
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(6, 3)) * theta.length_scale
    X2 = np.concatenate([X[:2], rng.uniform(-2.0, 2.0, size=(3, 3)) * theta.length_scale])
    expected = want.eval_pairwise(X, X2)
    for kernel in (CurlFreeKernel(theta), *spec_kernels):
        assert kernel.operator == want.operator and kernel.theta == want.theta
        assert np.array_equal(kernel.eval_pairwise(X, X2).view(np.int64),
                              expected.view(np.int64))


def test_import_builds_no_annihilator():
    # the curl-free family constructs its G on first use, not at import, so
    # importing fieldgp stays as cheap as it was
    check = ("import fieldgp\n"
             "assert fieldgp.kernels._curl_free_family.cache_info().currsize == 0\n"
             "fieldgp.CurlFreeKernel(fieldgp.SeHyperparams(1.0, 1.0))\n"
             "assert fieldgp.kernels._curl_free_family.cache_info().currsize == 1\n")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sv,ls", [
    (1.0, 1e-200),      # u = r / l and He_2(u) overflow off the diagonal
    (1.0, 1e-160),      # u^2 overflows off the diagonal
    (1.0, 1e200),
    (1e300, 1e10),
    (1e300, 1e-5),      # sv He_2(u) would overflow before the SE factor
    (1e300, 1e200),
])
def test_kernel_at_extreme_theta_is_its_limit(sv, ls, rng):
    # theta enters only at evaluation: the field kernel at (sv, l) is sv
    # times the unit kernel of r / l, exactly 0 where the SE factor
    # underflows, and nothing overflows on the way to either
    family = field_family(construct_g(make_curl_operator_3d())[0])
    X = rng.uniform(-2.0, 2.0, size=(5, 3))
    unit = family(SeHyperparams(1.0, 1.0))
    kernel = family(SeHyperparams(sv, ls))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = kernel.eval_pairwise(X * ls, X * ls)
        unscaled = kernel.eval_pairwise(X, X)
    want = sv * unit.eval_pairwise(X, X)
    assert np.all(np.abs(scaled - want) <= 1e-15 * np.abs(want).max())
    if ls < 1.0:   # every pair of distinct points is far apart in units of l
        at_zero = sv * unit.eval(np.zeros(3), np.zeros(3))
        for a in range(len(X)):
            assert np.array_equal(unscaled[a, :, a, :], at_zero)
            unscaled[a, :, a, :] = 0.0
        assert not np.any(unscaled)


@pytest.mark.parametrize("sv,ls", [
    (1.0, 1e200),       # l^-2 underflows, so the kernel is exactly 0
    (1e300, 1e10),
])
def test_transform_kernel_is_the_field_kernel_over_l_squared(sv, ls, rng):
    # transform_kernel applies G adj(G) to k, the field family to l^2 k
    G = construct_g(make_curl_operator_3d())[0]
    X = rng.uniform(-2.0, 2.0, size=(5, 3)) * ls
    theta = SeHyperparams(sv, ls)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = transform_kernel(G, theta).eval_pairwise(X, X)
        want = field_family(G)(theta).eval_pairwise(X, X) * ls ** -2.0
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want).max())


@pytest.mark.parametrize("sv,ls", [
    (1e-320, 1.0),      # sv itself is subnormal
])
def test_field_family_rejects_a_potential_variance_outside_the_normal_floats(sv, ls):
    # a subnormal sv would scale every entry imprecisely; theta refuses it
    family = field_family(construct_g(make_curl_operator_3d())[0])
    with pytest.raises(ValueError, match="signal_variance .* not a positive normal float"):
        family(SeHyperparams(sv, ls))


@pytest.mark.parametrize("sv,ls", [
    (1e-320, 1.0),      # subnormal coefficients
], ids=["subnormal"])
def test_compile_rejects_a_coefficient_outside_the_normal_floats(sv, ls):
    # sv scales every entry of the evaluated kernel; theta refuses a
    # subnormal one before transform_kernel is reached
    with pytest.raises(ValueError, match="signal_variance .* not a positive normal float"):
        transform_kernel(construct_g(make_curl_operator_3d())[0], SeHyperparams(sv, ls))


def _identity_expr(out_dim, dim):
    one, zero = OperatorPoly.constant(dim, 1), OperatorPoly.zero(dim)
    return MatrixKernelExpr(OperatorMatrix([[one if i == j else zero for j in range(out_dim)]
                                            for i in range(out_dim)]), THETA)


def test_diagonal_kernel_equals_its_expression_bitwise(rng):
    # the hand-built constant identity over D variables; without in_dim the
    # kernel's identity is over one variable and still evaluates at every D
    for dim in (1, 2, 3):
        for out_dim in (1, 2, 3):
            X, X2 = rng.normal(size=(7, dim)), rng.normal(size=(5, dim))
            X2[0] = X[2]
            ref = _identity_expr(out_dim, dim)
            for kernel in (DiagonalKernel(THETA, out_dim),
                           DiagonalKernel(THETA, out_dim, in_dim=dim)):
                assert isinstance(kernel, MatrixKernelExpr)
                a = assemble_gram(kernel, X, 1e-3)
                b = assemble_gram(ref, X, 1e-3)
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
                a = kernel.eval_pairwise(X, X2)
                b = ref.eval_pairwise(X, X2)
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert DiagonalKernel(THETA, 2, in_dim=2).entries == _identity_expr(2, 2).entries


def test_diagonal_kernels_share_one_identity_operator():
    # built once per (out_dim, in_dim), whatever the hyperparameters
    other = SeHyperparams(signal_variance=0.4, length_scale=2.5)
    assert DiagonalKernel(THETA, 3, in_dim=2).operator is \
        DiagonalKernel(other, 3, in_dim=2).operator
    assert DiagonalKernel(THETA, 2).operator is DiagonalKernel(other, 2, in_dim=1).operator
    assert DiagonalKernel(THETA, 3, in_dim=2).operator is not \
        DiagonalKernel(THETA, 3, in_dim=3).operator


def test_identity_factor_is_keyed_on_the_operator():
    # the hand-built identity qualifies as well as DiagonalKernel; the
    # factor keeps theta and the kernel's input dimension
    for kernel, in_dim in ((DiagonalKernel(THETA, 3), None),
                           (DiagonalKernel(THETA, 2, in_dim=3), 3),
                           (_identity_expr(3, 2), 2)):
        factor, repeats = identity_factor(kernel)
        assert isinstance(factor, DiagonalKernel)
        assert (factor.shape, factor.theta, factor.in_dim) == ((1, 1), THETA, in_dim)
        assert repeats == kernel.shape[0]
    twice = MatrixKernelExpr(OperatorMatrix([[OperatorPoly.constant(2, 2)]]), THETA)
    for kernel in (CurlFreeKernel(THETA), transform_kernel(
            construct_g(make_divergence_operator(2))[0], THETA), twice):
        assert identity_factor(kernel) is None


def test_sum_kernel_is_the_operator_sum():
    # a sum of kernels is the kernel of their operators' sum: the covariance
    # operators of the div-3D G's columns, each nonzero and short of the
    # total, sum entrywise to G adj(G), which the divergence annihilates
    div3 = make_divergence_operator(3)
    G3, _ = construct_g(div3)
    for c in range(G3.cols):
        column = covariance_operator(OperatorMatrix([[G3.entry(j, c)] for j in range(3)]))
        assert not column.is_zero() and column != covariance_operator(G3)
    summed = column_covariance_sum(G3)
    assert summed == covariance_operator(G3)
    assert symbolic_product(div3, summed).is_zero()


def test_diagonal_kernel_without_in_dim_takes_no_operator():
    # its identity is over one variable, whatever dimension it evaluates at
    for F in (make_divergence_operator(2), make_curl_operator_3d()):
        for side in ("left", "right"):
            with pytest.raises(DimensionMismatch):
                apply_operator_to_expr(F, DiagonalKernel(THETA, F.cols), side=side)
    with pytest.raises(DimensionMismatch):
        DiagonalKernel(THETA, 2, in_dim=2).eval(np.zeros(3), np.zeros(3))


def test_diagonal_kernel_values(rng):
    x = rng.normal(size=2)
    assert np.allclose(DiagonalKernel(THETA, 2).eval(x, x),
                       THETA.signal_variance * np.eye(2))
    x2 = rng.normal(size=2)
    k = DiagonalKernel(THETA, 3).eval(x, x2)
    assert k[0, 1] == k[1, 0] == k[0, 2] == 0.0
    assert DiagonalKernel(THETA, 1).eval(x, x2)[0, 0] == pytest.approx(
        se_direct(x, x2, THETA))


# ---------------------------------------------------------------------------
# operator application on kernel expressions


def test_apply_operator_divergence_free_cancels():
    F = make_divergence_operator(2)
    G, _ = construct_g(F)
    expr = transform_kernel(G, THETA)
    assert apply_operator_to_expr(F, expr, side="left").operator.is_zero()
    assert apply_operator_to_expr(F, expr, side="right").operator.is_zero()


def test_apply_operator_identity_left():
    eye = OperatorMatrix([[OperatorPoly.constant(2, 1), OperatorPoly.zero(2)],
                          [OperatorPoly.zero(2), OperatorPoly.constant(2, 1)]])
    expr = DiagonalKernel(THETA, 2, in_dim=2)
    applied = apply_operator_to_expr(eye, expr, side="left")
    assert applied.entries == expr.entries


def test_apply_operator_divergence_on_diagonal(rng):
    F = make_divergence_operator(2)
    expr = DiagonalKernel(THETA, 2, in_dim=2)
    applied = apply_operator_to_expr(F, expr, side="left")
    assert applied.shape == (1, 2)
    assert applied.entries[0][0] == {(1, 0): 1}
    assert applied.entries[0][1] == {(0, 1): 1}
    for _ in range(5):
        x, x2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        got = applied.eval(x, x2)
        # rows of F applied to each kernel column, compared entrywise
        scalar = lambda p, c: DiagonalKernel(THETA, 2).eval(p, x2)[:, c]
        for c in range(2):
            fd_c = fd_operator_rows(F, lambda p: scalar(p, c), x, h=1e-5)
            assert got[0, c] == pytest.approx(float(fd_c[0]), rel=1e-6, abs=1e-9)


@st.composite
def _first_order_operators(draw):
    # rows x cols entries c_0 + sum_d c_d d/dx_d with small integer coefficients
    dim = draw(st.sampled_from((2, 3)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    monos = [(0,) * dim] + [tuple(int(e == d) for e in range(dim)) for d in range(dim)]
    coeff = st.integers(-2, 2)
    return OperatorMatrix([[OperatorPoly(dim, {m: draw(coeff) for m in monos})
                            for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=40, deadline=None)
@given(F=_first_order_operators(), data=st.data(),
       sv=st.floats(0.5, 2.0), ls=st.floats(0.5, 2.0))
def test_second_argument_derivative_sign(F, data, sv, ls):
    # operators on x' are checked by differencing x' itself, not by reading
    # the expression's own terms: d/dx' = -d/dr must show in the numbers
    theta = SeHyperparams(sv, ls)
    dim = F.vars
    point = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    x = np.array(data.draw(point)) * ls
    x2 = np.array(data.draw(point)) * ls
    h = 1e-4 * ls
    # F acting on the second argument of a diagonal kernel: K F'^T
    prior = DiagonalKernel(theta, F.cols, in_dim=dim)
    right = apply_operator_to_expr(F, prior, side="right").eval(x, x2)
    fd = fd_apply_operator(F, lambda p: prior.eval(x, p).T, x2, h).T
    scale = sv * max(1.0, ls ** -2)
    assert np.max(np.abs(right - fd)) <= 1e-6 * scale
    # F k F'^T: the first argument symbolically, the second by differences
    left = apply_operator_to_expr(F, prior, side="left")
    fd = fd_apply_operator(F, lambda p: left.eval(x, p).T, x2, h).T
    assert np.max(np.abs(transform_kernel(F, theta).eval(x, x2) - fd)) <= 1e-6 * scale


def _second_order_constraint():
    # F = [d1^2, d2^2]; its annihilator is G = [d2^2, -d1^2]^T
    return OperatorMatrix([[OperatorPoly.monomial(2, (2, 0)),
                            OperatorPoly.monomial(2, (0, 2))]])


def test_apply_operator_order_two_constraint_cancels():
    F = _second_order_constraint()
    G, _ = construct_g(F)
    expr = transform_kernel(G, THETA)                            # order 4
    left = apply_operator_to_expr(F, expr, side="left")          # order 6
    both = apply_operator_to_expr(F, left, side="right")         # order 8
    assert left.operator.is_zero() and both.operator.is_zero()
    assert not apply_operator_to_expr(F, DiagonalKernel(THETA, 2, in_dim=2),
                                      "left").operator.is_zero()


def _integer_operator(draw, dim, rows, cols):
    # entries c_0 + sum_d c_d d/dx_d with small integer coefficients, often zero
    monos = [(0,) * dim] + [tuple(int(e == d) for e in range(dim)) for d in range(dim)]
    coeff = st.sampled_from((0, 0, 1, -1, 2))
    return OperatorMatrix([[OperatorPoly(dim, {m: draw(coeff) for m in monos})
                            for _ in range(cols)] for _ in range(rows)])


@st.composite
def _operator_pairs(draw):
    """(F, G) over one dimension with F.cols == G.rows; G annihilates F about half the time."""
    dim, n = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
    F = _integer_operator(draw, dim, draw(st.integers(1, 2)), n)
    if draw(st.booleans()):
        try:
            G0, _ = construct_g(F, max_degree=1)
            return F, symbolic_product(G0, _integer_operator(draw, dim, G0.cols, 2))
        except NoAnnihilatorFound:
            pass
    return F, _integer_operator(draw, dim, n, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(pair=_operator_pairs(), sv=st.floats(0.1, 10.0), ls=st.floats(0.1, 10.0))
def test_annihilation_is_decided_by_f_g(pair, sv, ls):
    # F G = 0 exactly when F G adj(G) = 0, at every theta: if F G adj(G)
    # vanishes, so does (F G)(F G)^H at every i xi, hence F G itself
    F, G = pair
    kernel = transform_kernel(G, SeHyperparams(sv, ls))
    assert (symbolic_product(F, G).is_zero()
            == apply_operator_to_expr(F, kernel, "left").operator.is_zero())


def test_order_six_expression_matches_mpmath(rng):
    # div_x (G adj G) div_x'^T for the G above is the scalar
    # (d1 d2^2 - d1^2 d2)_x (d1 d2^2 - d1^2 d2)_x' k: four order-6 partials
    G, _ = construct_g(_second_order_constraint())
    div = make_divergence_operator(2)
    expr = apply_operator_to_expr(div, transform_kernel(G, THETA), side="left")
    expr = apply_operator_to_expr(div, expr, side="right")
    assert expr.shape == (1, 1) and expr.operator.max_degree() == 6
    sv, ls = THETA.signal_variance, THETA.length_scale
    signs = {(1, 2): 1, (2, 1): -1}
    for _ in range(3):
        x, x2 = rng.uniform(-1.0, 1.0, 2) * ls, rng.uniform(-1.0, 1.0, 2) * ls
        oracle = sum(sa * sb * mp_diff_se_derivative(a, b, x, x2, sv, ls)
                     for a, sa in signs.items() for b, sb in signs.items())
        ours = float(expr.eval(x, x2)[0, 0])
        assert abs(ours - oracle) <= 1e-11 * max(abs(oracle), sv / ls ** 6)


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


# ---------------------------------------------------------------------------
# kernel specs


def _kernel_from_spec(spec):
    family, theta = kernel_family_from_spec(spec)
    return family(theta)


def test_kernel_from_spec_variants():
    hyper = dataclasses.asdict(THETA)
    diag = _kernel_from_spec({"type": "diagonal", "out_dim": 2, "hyperparams": hyper})
    assert isinstance(diag, DiagonalKernel) and diag.shape == (2, 2)
    curl = _kernel_from_spec({"type": "curl_free_3d", "hyperparams": hyper})
    assert isinstance(curl, CurlFreeKernel)
    f_spec = make_divergence_operator(2).to_json_dict()
    trans = _kernel_from_spec({"type": "transformed", "g_operator": "auto-from-F",
                               "f_operator": f_spec, "hyperparams": hyper})
    assert isinstance(trans, MatrixKernelExpr) and trans.shape == (2, 2)
    explicit = _kernel_from_spec({
        "type": "transformed",
        "g_operator": construct_g(make_divergence_operator(2))[0].to_json_dict(),
        "hyperparams": hyper})
    assert explicit.entries == trans.entries
    with pytest.raises(ValueError):
        _kernel_from_spec({"type": "mystery", "hyperparams": hyper})
    with pytest.raises(ValueError):
        _kernel_from_spec({"type": "transformed", "hyperparams": hyper,
                           "g_operator": "auto-from-F"})


# ---------------------------------------------------------------------------
# the compiled evaluator against the old per-family arithmetic


def _laplacian_row(dim):
    # 1 x dim operator [d^2/dx_1^2, ..., d^2/dx_dim^2]: order 4 on a diagonal prior
    return OperatorMatrix([[OperatorPoly.monomial(dim, tuple(2 * (e == d) for e in range(dim)))
                            for d in range(dim)]])


def _augment_pair(F, dim, theta):
    prior = DiagonalKernel(theta, F.cols, in_dim=dim)
    cross = apply_operator_to_expr(F, prior, side="right")
    return cross, apply_operator_to_expr(F, cross, side="left")


def _family_kernels(dim, theta):
    kernels = [DiagonalKernel(theta, out_dim) for out_dim in (1, 2, 3)]
    kernels += list(_augment_pair(_laplacian_row(dim), dim, theta))
    if dim >= 2:
        G, _ = construct_g(make_divergence_operator(dim))
        kernels += [transform_kernel(G, theta)]
        kernels += list(_augment_pair(make_divergence_operator(dim), dim, theta))
    if dim == 3:
        kernels += [CurlFreeKernel(theta)]
        kernels += list(_augment_pair(make_curl_operator_3d(), dim, theta))
    return kernels


_COORD = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.sampled_from((1, 2, 3)),
       sv=st.floats(0.05, 20.0), ls=st.floats(0.1, 4.0))
def test_eval_pairwise_matches_old_arithmetic(data, dim, sv, ls):
    theta = SeHyperparams(sv, ls)
    n1 = data.draw(st.integers(1, 5))
    n2 = data.draw(st.integers(1, 5))
    X = np.array(data.draw(st.lists(st.lists(_COORD, min_size=dim, max_size=dim),
                                    min_size=n1, max_size=n1)))
    X2 = np.array(data.draw(st.lists(st.lists(_COORD, min_size=dim, max_size=dim),
                                     min_size=n2, max_size=n2)))
    if data.draw(st.booleans()):
        X2[0] = X[-1]        # a coincident pair: exact zero differences
    for kernel in _family_kernels(dim, theta):
        got = kernel.eval_pairwise(X, X2).transpose(0, 2, 1, 3)
        ref = reference_pairwise(kernel, theta, X, X2)
        # far pairs underflow; below 1e-200 * sv a value is zero for any use
        scale = max(np.max(np.abs(ref)), 1e-200 * sv)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, type(kernel).__name__
