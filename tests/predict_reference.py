"""The posterior prediction fieldgp computed eagerly, before variances were solved on read.

Kept as the reference ``PredictionResult`` is tested against bit for bit:
one call formed the means, ran the triangular solve v = L^-1 C^T, and
with ``full_cov`` formed the joint covariance before squaring v in place
for the marginal variances.
"""

import numpy as np
from scipy.linalg import solve_triangular

from fieldgp.gp import cross_gram


def eager_predict(model, Xstar, full_cov=False):
    """(means (M, K), marginal variances (M, K), covariance (MK, MK) or None)."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    m, k_out, repeats = Xstar.shape[0], model.data.out_dim, model.repeats
    C = cross_gram(model.factor, Xstar, model.data.inputs)
    if model.block is not None:
        C = np.hstack([C, cross_gram(model.block.cross, Xstar, model.block.points)])
    means = (C @ model.alpha.reshape(-1, repeats)).reshape(m, k_out)
    v = solve_triangular(model.L, C.T, lower=True, overwrite_b=True)
    covariance = None
    if full_cov:
        prior_full = cross_gram(model.factor, Xstar, Xstar)
        covariance = np.kron(prior_full - v.T @ v, np.eye(repeats))
    origin = np.zeros(Xstar.shape[1])
    prior_diag = np.tile(np.diag(model.factor.eval(origin, origin)), m)
    variances = prior_diag - np.sum(np.square(v, out=v), axis=0)
    variances = np.repeat(np.maximum(variances, 0.0), repeats).reshape(m, k_out)
    return means, variances, covariance
