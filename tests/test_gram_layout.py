"""The point-major block layout against the (N1, N2, rows, cols) reference.

Kernels used to return an (N1, N2, rows, cols) array that ``assemble_gram``
and ``cross_gram`` transpose-copied into blocks, and ``assemble_gram`` added
noise through a full identity matrix.  That implementation is kept here as
the reference, with the old kernel arithmetic of ``kernel_reference``.
Shapes and the placement of every block entry must match exactly.  The
values are held to 1e-13 of the largest reference value, not to the bit:
the kernels now evaluate every family through one compiled evaluator,
which multiplies the same factors in a different order (and merges terms
with equal total derivative order), so the last bits differ by design.
"""

import numpy as np
import pytest

from fieldgp.gp import assemble_gram, cross_gram
from fieldgp.kernels import (
    CurlFreeKernel,
    DiagonalKernel,
    SeHyperparams,
    apply_operator_to_expr,
    transform_kernel,
)
from fieldgp.operators import construct_g, make_curl_operator_3d, make_divergence_operator

from kernel_reference import reference_pairwise

# a short length scale next to points spread over [-3, 3], so some kernel
# values underflow to exactly zero
THETA = SeHyperparams(1.3, 0.15, 1e-3)


def reference_cross_gram(kernel, X1, X2):
    k = reference_pairwise(kernel, X1, X2)
    n1, n2, r, c = k.shape
    return k.transpose(0, 2, 1, 3).reshape(n1 * r, n2 * c)


def reference_assemble_gram(kernel, X, noise_variance):
    gram = reference_cross_gram(kernel, X, X)
    return gram + noise_variance * np.eye(gram.shape[0])


def _families():
    G2, _ = construct_g(make_divergence_operator(2))
    G3, _ = construct_g(make_divergence_operator(3))
    column_thetas = [SeHyperparams(0.4, 2.1), SeHyperparams(1.1, 0.2),
                     SeHyperparams(2.0, 0.9)]
    families = {
        "div2d": (2, transform_kernel(G2, THETA)),
        "div3d": (3, transform_kernel(G3, THETA)),
        "curl_free": (3, CurlFreeKernel(THETA)),
        "diagonal2d": (2, DiagonalKernel(THETA, 2)),
        "diagonal3d": (3, DiagonalKernel(THETA, 3)),
        "per_column_sum": (3, transform_kernel(G3, THETA, per_column_thetas=column_thetas)),
    }
    # the cov(f, F[f]) and cov(F[f], F[f]) expressions baseline.augment builds
    for name, F, dim in (("div2d", make_divergence_operator(2), 2),
                         ("curl3d", make_curl_operator_3d(), 3)):
        prior = DiagonalKernel(THETA, dim).as_expr(dim)
        cross = apply_operator_to_expr(F, prior, side="right")
        families[f"augment_cross_{name}"] = (dim, cross)
        families[f"augment_prior_{name}"] = (dim, apply_operator_to_expr(F, cross, side="left"))
    return families


FAMILIES = _families()


def _points(rng, dim):
    X = rng.uniform(-3.0, 3.0, size=(17, dim))
    X[5] = X[3]               # a repeated point
    X[7, 0] = X[2, 0]         # a shared coordinate: exact zero differences
    X2 = rng.uniform(-3.0, 3.0, size=(11, dim))
    X2[0] = X[1]
    return X, X2


def _close(a, b):
    return a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_layout_bitwise_equal_to_reference(rng, name):
    dim, kernel = FAMILIES[name]
    X, X2 = _points(rng, dim)
    C = cross_gram(kernel, X, X2)
    assert C.shape == (17 * kernel.shape[0], 11 * kernel.shape[1])
    assert _close(C, reference_cross_gram(kernel, X, X2))
    if kernel.shape[0] == kernel.shape[1]:
        assert _close(assemble_gram(kernel, X), reference_cross_gram(kernel, X, X))
        assert _close(assemble_gram(kernel, X, 1e-3),
                      reference_assemble_gram(kernel, X, 1e-3))
