"""Constraint enforcement through noise-free pseudo-observations.

Instead of building the constraint into the covariance, the operator F
is observed to be zero at a chosen set of points: the GP is conditioned
jointly on the real data and on artificial observations of the
transformed field F[f] with zero targets and zero noise.  These are
linear observations of f, so conditioning on them is ordinary GP
conditioning on one extra observation block (see :func:`fieldgp.gp.fit_gp`).
The constraint then holds only at those points, and the joint Gram
matrix grows with their number and loses conditioning because the added
block is noiseless, which is why the factorization jitter is surfaced
rather than hidden.
"""

import numpy as np

from .gp import ObservationBlock, fit_gp, predict
from .kernels import MatrixKernelExpr, apply_operator_to_expr


def augment(data, F, points, kernel):
    """Fit the GP jointly on data and constraint pseudo-observations.

    Parameters
    ----------
    F : OperatorMatrix with as many columns as the field has components.
    points : (Nc, D) locations where F[f] = 0 is observed (may be empty).
    kernel : MatrixKernelExpr prior covariance of the field; an explicit
        expression is required so F can be applied to its arguments.

    Returns a :class:`fieldgp.gp.GpModel`; its ``joint_dim`` counts the
    data rows plus Nc * rows(F) constraint rows.  The constraint rows
    carry no noise; conditioning issues are handled by the jitter schedule
    of :func:`fieldgp.gp.cholesky_jitter` and the jitter used is recorded.
    """
    if not isinstance(kernel, MatrixKernelExpr):
        raise TypeError("augment needs an explicit MatrixKernelExpr kernel")
    if F.cols != data.out_dim:
        raise ValueError(
            f"F has {F.cols} columns but the field has {data.out_dim} components")
    points = np.asarray(points, dtype=float).reshape(-1, data.in_dim)
    cross = apply_operator_to_expr(F, kernel, side="right")    # cov(f, F[f])
    prior = apply_operator_to_expr(F, cross, side="left")      # cov(F[f], F[f])
    return fit_gp(data, kernel, block=ObservationBlock(cross, prior, points))


def predict_augmented(model, Xstar, full_cov=False):
    """Posterior of an :func:`augment` model: exactly :func:`fieldgp.gp.predict`.

    Kept as its own name only because the benchmark's traced run
    (``perfbench/spans.py``) wraps ``fieldgp.baseline.predict_augmented``
    to time pseudo-observation predictions apart from the others.
    """
    return predict(model, Xstar, full_cov)
