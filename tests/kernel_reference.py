"""The kernel arithmetic fieldgp used before its one compiled evaluator.

Kept as the reference the evaluator is tested against: the hand-written
diagonal and curl-free closed forms, and the per-term loop that summed
one full SE derivative (exponential and Hermite factors recomputed) per
term of a kernel expression.  Values come in the (N1, N2, rows, cols)
layout these implementations returned.
"""

import numpy as np

from fieldgp.kernels import CurlFreeKernel, DiagonalKernel, MatrixKernelExpr


def hermite_batch(n, u):
    """Probabilists' Hermite polynomial He_n evaluated elementwise."""
    h_prev = np.ones_like(u)
    if n == 0:
        return h_prev
    h = u.copy()
    for k in range(1, n):
        h, h_prev = u * h - k * h_prev, h
    return h


def se_derivative_batch(alpha, beta, diff, theta):
    """Mixed partial of the SE kernel on a (..., D) array of differences x - x'.

    d^alpha/dx d^beta/dx' k = (-1)^|alpha| sv l^-|g| prod_d He_{g_d}(r_d/l) k,
    with g = alpha + beta.
    """
    ell = theta.length_scale
    u = diff / ell
    value = np.exp(-0.5 * np.sum(u * u, axis=-1))
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    for d, g in enumerate(gamma):
        if g:
            value = value * hermite_batch(g, u[..., d])
    order = sum(gamma)
    sign = -1.0 if sum(alpha) % 2 else 1.0
    return sign * theta.signal_variance * ell ** (-order) * value


def curl_free_closed_form(theta, X, X2):
    """sv exp(-|u|^2/2) (I - u u^T) with u = (x - x') / l."""
    u = (X[:, None, :] - X2[None, :, :]) / theta.length_scale
    k = theta.signal_variance * np.exp(-0.5 * np.sum(u * u, axis=-1))
    outer = u[:, :, :, None] * u[:, :, None, :]
    return k[:, :, None, None] * (np.eye(3) - outer)


def diagonal_closed_form(theta, out_dim, X, X2):
    """The scalar SE kernel times the out_dim x out_dim identity."""
    diff = X[:, None, :] - X2[None, :, :]
    k = theta.signal_variance * np.exp(
        -0.5 * np.sum(diff * diff, axis=-1) / theta.length_scale ** 2)
    return k[:, :, None, None] * np.eye(out_dim)


def term_loop(expr, X, X2):
    """A kernel expression summed one derivative term at a time."""
    diff = X[:, None, :] - X2[None, :, :]
    rows, cols = expr.shape
    out = np.zeros((X.shape[0], X2.shape[0], rows, cols))
    zero = (0,) * X.shape[1]
    for i in range(rows):
        for j in range(cols):
            # a monomial in d/dr is the same derivative in d/dx
            for mono, coeff in expr.entries[i][j].items():
                out[:, :, i, j] += float(coeff) * se_derivative_batch(
                    mono, zero, diff, expr.theta)
    return out


def reference_pairwise(kernel, theta, X, X2):
    """Kernel values in the (N1, N2, rows, cols) layout, computed the old way.

    ``theta`` is the one the kernel was built from; the closed forms take
    its signal variance as the field's.
    """
    if isinstance(kernel, CurlFreeKernel):
        return curl_free_closed_form(theta, X, X2)
    if isinstance(kernel, DiagonalKernel):
        return diagonal_closed_form(theta, kernel.shape[0], X, X2)
    assert isinstance(kernel, MatrixKernelExpr)
    return term_loop(kernel, X, X2)
