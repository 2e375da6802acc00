"""Constraint enforcement through noise-free pseudo-observations.

Instead of building the constraint into the covariance, the operator F
is observed to be zero at a chosen set of points: the GP is conditioned
jointly on the real data and on artificial observations of the
transformed field F[f] with zero targets and zero noise.  These are
linear observations of f, so conditioning on them is ordinary GP
conditioning on one extra observation block (see :func:`fieldgp.gp.fit_gp`).
The constraint then holds only at those points.  The added block is
noiseless, so as the points crowd together their observations become
numerically dependent: the fit keeps only the rows that still carry
information given the data and the rows kept before them (a pivoted
Cholesky factorization of the block's Schur complement), and the model's
``block.rows`` says which.
"""

import numpy as np

from .gp import ObservationBlock, fit_gp, predict
from .kernels import apply_operator_to_expr


def augment(data, F, points, kernel):
    """Fit the GP jointly on data and constraint pseudo-observations.

    Parameters
    ----------
    F : OperatorMatrix with as many columns as the field has components.
    points : (Nc, D) locations where F[f] = 0 is observed (may be empty).
    kernel : MatrixKernelExpr prior covariance of the field over D input
        variables, so F can be applied to its arguments: a fitted
        ``DiagonalKernel(theta, K, in_dim=D)``, for instance.

    Returns a :class:`fieldgp.gp.GpModel`.  The constraint rows carry no
    noise, and of the Nc * rows(F) of them the model conditions only on
    ``model.block.rows``, those whose variance given the data and the rows
    kept before them exceeds the pivot tolerance ``fieldgp.gp.PIVOT_RTOL``
    (relative to the joint Gram matrix's largest diagonal entry).  Its
    ``joint_dim`` counts the data rows plus the kept rows.
    """
    if F.cols != data.out_dim:
        raise ValueError(
            f"F has {F.cols} columns but the field has {data.out_dim} components")
    points = np.asarray(points, dtype=float).reshape(-1, data.in_dim)
    cross = apply_operator_to_expr(F, kernel, side="right")    # cov(f, F[f])
    prior = apply_operator_to_expr(F, cross, side="left")      # cov(F[f], F[f])
    return fit_gp(data, kernel, block=ObservationBlock(cross, prior, points))


def predict_augmented(model, Xstar):
    """Posterior of an :func:`augment` model: exactly :func:`fieldgp.gp.predict`.

    The means are computed here; the variances and the covariance are
    solved for when the result's attributes are first read.  Kept as its
    own name only because the benchmark's traced run
    (``perfbench/spans.py``) wraps ``fieldgp.baseline.predict_augmented``
    to time pseudo-observation predictions apart from the others.
    """
    return predict(model, Xstar)
