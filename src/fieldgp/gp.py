"""Multi-output Gaussian-process regression on block Gram matrices.

Observations of a K-component field at N points are flattened
point-major (all components of point 1, then point 2, ...), matching the
K x K blocks produced by the matrix kernels.  Factorization adds noise
variance on the diagonal and escalates a small jitter when the data's
Gram matrix is numerically semidefinite; the jitter actually used is
recorded on the model so experiments can report it.  LAPACK ``dpotrf``
factors each Gram matrix in its own memory, through its Fortran view, and
the Fortran-ordered factor reaches the LAPACK solvers without a copy.

When the kernel is the constant K x K identity applied to a scalar
kernel k (the independent-output kernel), the noisy Gram matrix of the
data is kron(K_k + noise I, I_K) in point-major layout: ``fit_gp`` then
factors the N x N matrix once.  Without an observation block it solves
that factor for all K output columns together, and a prediction's
variances share one triangular solve between the components.  Every
other kernel's data Gram matrix is factored as the dense NK x NK matrix.

An observation block of noise-free pseudo-observations is conditioned on
after the data, through the Schur complement of its rows given the data.
That complement is numerically rank-deficient when the block is dense,
so a pivoted Cholesky factorization keeps only the rows whose variance
given the data and the rows kept before them exceeds ``PIVOT_RTOL``
times the largest diagonal entry of the joint Gram matrix, and the model
conditions on those rows alone, without jitter.

``predict`` computes only the posterior means, which need the weights
K^-1 y alone; the variances and the covariance also need a triangular
solve against every prediction column, and are solved for when first read.

``fit_hyperparameters`` scores each theta with the factor and K^-1 y alone
(Rasmussen & Williams 2006, Alg. 2.1), through the same Gram, noise and
factor step as ``fit_gp`` and the same formula as
``log_marginal_likelihood``.  Its kernel family has one operator and order
for every theta, so the work free of theta (the Kronecker decision, the
pairwise differences of the training inputs, y's layout) is done once per
fit, and no model is built until the caller fits the winning theta.
"""

import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, cho_solve, lapack, solve_triangular

from .kernels import DiagonalKernel, SeHyperparams, identity_factor, pair_differences

logger = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))


class NotPositiveDefinite(Exception):
    """A Gram matrix that should be positive semidefinite is not.

    Raised when a factorization fails even after the maximum jitter
    escalation, or when an observation block has a negative variance
    given the data.
    """


#: Diagonal-inflation schedule of :func:`cholesky_jitter`:
#: JITTER_BASE_SCALE * tr(M)/dim * 10^k for k = 0..JITTER_MAX_ESCALATIONS.
JITTER_BASE_SCALE = 1e-12
JITTER_MAX_ESCALATIONS = 6

#: Pivot tolerance of an observation block's factorization, relative to the
#: largest diagonal entry of the joint Gram matrix: a block row is kept while
#: its variance given the data and the rows kept before it exceeds this.  At
#: 1e-10 the pseudo-observation RMSE moved 0.5%; at 1e-12 it moved by at most
#: 6.7e-4 relative (the benchmark's 3-D inputs and the simulated pipeline,
#: seeds 0-2) against conditioning on every row with a jitter.
PIVOT_RTOL = 1e-12

#: Entries of an observation block's cross kernel that :func:`predict`
#: evaluates at a time: its kept columns are gathered into the
#: cross-covariance from temporaries of at most this size.
_CROSS_CHUNK_ENTRIES = 1 << 20


@dataclass
class Dataset:
    """Training data: inputs (N, D), outputs (N, K), and the noise level."""

    inputs: np.ndarray
    outputs: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.asarray(self.outputs, dtype=float)
        if outputs.ndim == 1:
            outputs = outputs[:, None]
        self.outputs = outputs
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError("inputs and outputs disagree on the number of points")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.outputs))):
            raise ValueError("data must be finite")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

    @property
    def in_dim(self):
        return self.inputs.shape[1]

    @property
    def out_dim(self):
        return self.outputs.shape[1]

    @property
    def y_flat(self):
        return self.outputs.reshape(-1)


class PredictionResult:
    """The posterior of a fitted :class:`GpModel` at M new points.

    ``means`` (M, K) is computed by :func:`predict`.  ``marginal_variances``
    (M, K) and ``covariance`` (MK, MK) also need v = L^-1 C^T, a triangular
    solve against every prediction column of the cross-covariance C: it
    runs when either is first read, once, and both share its v.  Reading
    them leaves the model unchanged.
    """

    def __init__(self, model, points, means):
        self.model = model
        self.points = points
        self.means = means

    @cached_property
    def _v(self):
        C = _cross_covariance(self.model, self.points)
        # C is not used again: the solve reuses its memory
        return solve_triangular(self.model.L, C.T, lower=True, overwrite_b=True)

    @cached_property
    def marginal_variances(self):
        model, m = self.model, self.points.shape[0]
        # stationary kernels: k(x, x) is k(0, 0) at every point
        origin = np.zeros(self.points.shape[1])
        prior_diag = np.tile(np.diag(model.factor.eval(origin, origin)), m)
        variances = prior_diag - np.sum(np.square(self._v), axis=0)
        return np.repeat(_clamp_variances(variances), model.repeats).reshape(self.means.shape)

    @cached_property
    def covariance(self):
        prior_full = cross_gram(self.model.factor, self.points, self.points)
        return np.kron(prior_full - self._v.T @ self._v, np.eye(self.model.repeats))


def assemble_gram(kernel, X, noise_variance=0.0, differences=None):
    """Block Gram matrix of a matrix kernel with noise on the diagonal.

    ``differences`` is ``tuple(pair_differences(X, X))``, for a caller that
    assembles many Gram matrices on the same X.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = kernel.eval_pairwise(X, X, differences)
    n, r, _, c = k.shape
    if r != c:
        raise ValueError("Gram assembly needs a square kernel")
    gram = k.reshape(n * r, n * r)
    if noise_variance:
        diagonal = gram.reshape(-1)[::n * r + 1]    # a view: gram is a reshape of k
        diagonal += noise_variance
    return gram


def cross_gram(kernel, X1, X2):
    """Cross-covariance block matrix, shape (N1*rows, N2*cols)."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    k = kernel.eval_pairwise(X1, X2)
    n1, r, n2, c = k.shape
    return k.reshape(n1 * r, n2 * c)


def cholesky_jitter(M):
    """Lower Cholesky factor of the symmetric matrix M, in M's own memory,
    with escalating jitter.

    LAPACK ``dpotrf`` factors the Fortran view ``M.T`` in place, so M is
    overwritten when it is a C-contiguous float64 array (any other M is
    factored in a copy).  Returns (L, jitter_used): L is that
    Fortran-ordered lower factor with its strict upper triangle zeroed,
    which LAPACK solvers such as ``cho_solve`` read without a copy.  When
    the factorization fails, each retry restores the triangle ``dpotrf``
    overwrote from the one it leaves untouched and factors M + jitter I.
    Raises ``ValueError`` if a failed M is not finite, and
    NotPositiveDefinite when the largest jitter in the schedule still fails.
    """
    # M is symmetric, so its Fortran view is M too
    L = np.ascontiguousarray(M, dtype=float).T
    diagonal = np.diagonal(L).copy()
    L, info = lapack.dpotrf(L, lower=1, clean=0, overwrite_a=1)
    jitter = 0.0
    if info:
        _restore_lower(L)
        np.fill_diagonal(L, diagonal)
        if not np.all(np.isfinite(L)):
            raise ValueError("array must not contain infs or NaNs")
        scale = np.trace(L) / L.shape[0]
        jitter = JITTER_BASE_SCALE * (scale if scale > 0 else 1.0)
        for _ in range(JITTER_MAX_ESCALATIONS + 1):
            # the floats of M + jitter * I: off the diagonal that sum adds only +0.0
            np.fill_diagonal(L, diagonal + jitter)
            L, info = lapack.dpotrf(L, lower=1, clean=0, overwrite_a=1)
            if not info:
                logger.debug("cholesky needed jitter %.3e", jitter)
                break
            _restore_lower(L)
            jitter *= 10.0
        else:
            raise NotPositiveDefinite(
                f"matrix not factorizable after jitter escalation to {jitter / 10.0:.3e}")
    # dpotrf's own zeroing (clean=1) walks the triangle across columns and
    # costs about 3x this mask at 1500 rows; one mask is cheap at 50 rows too
    np.copyto(L.T, 0.0, where=np.tri(L.shape[0], k=-1, dtype=bool))
    return L, jitter


def _restore_lower(L):
    """Copy the strict upper triangle, which ``dpotrf`` leaves as it was, onto the lower."""
    for j in range(L.shape[0] - 1):
        L[j + 1:, j] = L[j, j + 1:]


class ObservationBlock(NamedTuple):
    """Zero-valued, noise-free linear observations L[f] at a set of points.

    ``cross`` is the matrix kernel cov(f(x), L[f](x')) and ``prior`` is
    cov(L[f](x), L[f](x')); ``points`` is (Nc, D).  The block's rows are
    point-major, row r of point i at index i * rows(L) + r.  ``rows`` lists,
    in pivot order, the rows a fitted model conditions on: :func:`fit_gp`
    sets it on the block of the model it returns.
    """

    cross: object
    prior: object
    points: np.ndarray
    rows: np.ndarray | None = None


class GpModel:
    """A fitted GP: training data and the factored joint Gram matrix.

    ``L`` factors the Gram matrix of ``factor``, and the joint Gram matrix
    is kron(L L^T, I_repeats): ``factor`` is the scalar kernel of an
    independent-output kernel with ``repeats`` components, else the
    fitted kernel itself with ``repeats`` 1.  ``block`` is the
    :class:`ObservationBlock` conditioned on besides the data, or None;
    its ``rows`` follow the data rows in ``L``.  ``alpha`` is the
    flattened point-major K^-1 y over the data rows, then the block's
    kept rows.
    """

    def __init__(self, factor, repeats, data, L, alpha, jitter, block=None):
        self.factor = factor
        self.repeats = repeats
        self.data = data
        self.L = L
        self.alpha = alpha
        self.jitter = jitter
        self.block = block

    @property
    def joint_dim(self):
        return self.L.shape[0] * self.repeats


def fit_gp(data, kernel, noise_variance=None, block=None):
    """Factor the joint Gram matrix and solve for the prediction weights.

    The data's Gram matrix is factored on its own, as N x N for an
    independent-output kernel.  With an :class:`ObservationBlock` the GP
    is then conditioned on the block's zero-valued observations too, on
    the rows that :func:`_factor_block` keeps, and the model's ``L`` is
    the dense lower factor of the data rows followed by the kept rows.
    """
    _check_out_dim(kernel, data)
    if noise_variance is None:
        noise_variance = data.noise_std ** 2
    factor, repeats = identity_factor(kernel) or (kernel, 1)
    L, jitter, data_variance = _factor_data(factor, data.inputs, noise_variance)
    y = data.y_flat.reshape(-1, repeats)    # column c holds output c in the Kronecker case
    if block is not None:
        rows, w_kept, l_kept = _factor_block(data, L, block, data_variance)
        n_data = y.size
        joint = np.zeros((n_data + rows.size,) * 2, order="F")
        for c in range(repeats):    # kron(L, I_repeats), without np.kron's temporaries
            joint[c:n_data:repeats, c:n_data:repeats] = L
        joint[n_data:, :n_data] = w_kept
        joint[n_data:, n_data:] = l_kept
        L, factor, repeats, block = joint, kernel, 1, block._replace(rows=rows)
        y = np.concatenate([data.y_flat, np.zeros(rows.size)])[:, None]
    # cho_solve's finiteness check stays: at a huge signal variance a kernel
    # value can overflow to inf or nan, LAPACK's dpotrf then returns a
    # non-finite factor without failing, and this check is what rejects it.
    # L is in Fortran order, so cho_solve reads it without a copy
    alpha = cho_solve((L, True), y).reshape(-1)
    return GpModel(factor, repeats, data, L, alpha, jitter, block)


def _factor_data(factor, X, noise_variance, differences=None):
    """(L, jitter, largest diagonal entry) of the noisy Gram matrix of ``factor`` at X."""
    gram = assemble_gram(factor, X, noise_variance, differences)
    # read first: the factor overwrites the Gram matrix's diagonal
    data_variance = gram.diagonal().max(initial=0.0)
    L, jitter = cholesky_jitter(gram)
    return L, jitter, data_variance


def _factor_block(data, L, block, data_variance):
    """The rows of ``block`` to condition on after the data, and their factor.

    ``L`` is the lower factor of the data's Gram matrix, or with N rows the
    scalar factor of kron(L L^T, I_K); ``data_variance`` is the largest
    diagonal entry of that Gram matrix.  Forms W = L_d^-1 K_dc and the Schur
    complement S = K_cc - W^T W of the block given the data, in place, and
    factors S by pivoted Cholesky (LAPACK dpstrf), which stops at the first
    pivot at most tol = ``PIVOT_RTOL`` times the joint Gram matrix's largest
    diagonal entry.  Returns (rows, W[:, rows]^T, L_s): the kept rows in
    pivot order and the blocks of the joint factor [[L_d, 0], [W[:, rows]^T,
    L_s]].  Raises ``NotPositiveDefinite`` if a dropped row's variance given
    the data and the kept rows is below -tol, which no PSD prior gives: a
    negative diagonal entry of S, or S indefinite.
    """
    k_dc = cross_gram(block.cross, data.inputs, block.points)
    k_cc = cross_gram(block.prior, block.points, block.points)
    n_data, n_rows = k_dc.shape
    tol = PIVOT_RTOL * max(data_variance, np.max(np.diagonal(k_cc), initial=0.0))
    if n_rows == 0:    # dsyrk rejects an empty matrix
        return np.zeros(0, dtype=int), np.zeros((0, n_data)), np.zeros((0, 0))
    # rows of K_dc are point-major, so against the scalar factor of
    # kron(L L^T, I_K) the K components of a point are K more columns;
    # solving W^T L^T = K_dc^T from the right overwrites K_dc with W
    w = blas.dtrsm(1.0, L, k_dc.reshape(L.shape[0], -1).T, side=1, lower=1,
                   trans_a=1, overwrite_b=1).T.reshape(n_data, n_rows)
    # K_cc and S are symmetric, so k_cc.T is a Fortran view of either:
    # BLAS and LAPACK both work on its lower triangle in place
    s = blas.dsyrk(-1.0, w.T, beta=1.0, c=k_cc.T, lower=1, overwrite_c=1)
    variances = np.diagonal(s).copy()
    if not np.all(np.isfinite(variances)):
        raise ValueError("array must not contain infs or NaNs")
    rank, piv = 0, np.arange(1, n_rows + 1)
    if np.max(variances) > tol:
        s, piv, rank, info = lapack.dpstrf(s, tol=tol, lower=1, overwrite_a=1)
        if info < 0:
            raise NotPositiveDefinite(f"dpstrf rejected argument {-info}")
    # dpstrf stops at the first pivot at most tol, negative ones too: a
    # dropped row's variance given the kept rows must not be below -tol
    dropped = variances[piv[rank:] - 1] - np.sum(np.square(s[rank:, :rank]), axis=1)
    if np.min(dropped, initial=0.0) < -tol:
        raise NotPositiveDefinite(
            f"observation block has variance {np.min(dropped):.3e} given the data")
    logger.debug("conditioning on %d of %d observation-block rows", rank, n_rows)
    rows = piv[:rank] - 1
    # s is in Fortran order: the upper triangle of its C-ordered transpose is
    # L_s^T, and np.triu on that is several times faster than np.tril on s
    return rows, np.take(w, rows, axis=1).T, np.triu(s[:rank, :rank].T).T


def _check_out_dim(kernel, data):
    """Raise a ``ValueError`` unless the kernel's output and input counts fit the data."""
    if kernel.shape[0] != data.out_dim:
        raise ValueError(f"the kernel has {kernel.shape[0]} output components, "
                         f"the data {data.out_dim}")
    if kernel.in_dim not in (None, data.in_dim):
        raise ValueError(f"the kernel is over {kernel.in_dim} input variables, "
                         f"the data {data.in_dim}")


def log_marginal_likelihood(model):
    """Gaussian log evidence of the training outputs (and a block's kept zero-valued rows)."""
    y = model.data.y_flat
    return _log_evidence(y, model.alpha[:y.size], model.L, model.repeats)


def _log_evidence(y, alpha, L, repeats):
    """-y^T alpha / 2 - log det(K) / 2 - n log(2 pi) / 2, for K = kron(L L^T, I_repeats).

    ``alpha`` is K^-1 y over the data rows; for a model with a block, the
    kept rows' zero targets add nothing to the quadratic term.
    """
    return float(
        -0.5 * y @ alpha
        - repeats * np.log(L.diagonal()).sum()
        - 0.5 * (L.shape[0] * repeats) * LOG_2PI
    )


def predict(model, Xstar):
    """Posterior mean of the field at new points; variances are solved on first read."""
    # a private copy: the variances are computed from it later
    Xstar = np.array(Xstar, dtype=float, ndmin=2)
    # the only check between a non-finite kernel value and the means
    C = np.asarray_chkfinite(_cross_covariance(model, Xstar))
    means = (C @ model.alpha.reshape(-1, model.repeats)).reshape(len(Xstar), model.data.out_dim)
    return PredictionResult(model, Xstar, means)


def _cross_covariance(model, Xstar):
    """cov(f(Xstar), joint observations): the data columns, then the block's kept rows."""
    block = model.block
    if block is None:
        return cross_gram(model.factor, Xstar, model.data.inputs)
    k, r = block.cross.shape
    # the kept rows' columns of the cross kernel at the points with a kept row
    points, point_of_row = np.unique(block.rows // r, return_inverse=True)
    columns = point_of_row * r + block.rows % r
    n_data = model.data.outputs.size
    C = np.empty((len(Xstar) * k, n_data + columns.size))
    C[:, :n_data] = cross_gram(model.factor, Xstar, model.data.inputs)
    step = max(1, _CROSS_CHUNK_ENTRIES // (k * r * max(points.size, 1)))
    for lo in range(0, len(Xstar), step):
        # np.take gathers the columns several times faster than [:, columns]
        C[lo * k:(lo + step) * k, n_data:] = np.take(
            cross_gram(block.cross, Xstar[lo:lo + step], block.points[points]), columns, axis=1)
    return C


def _clamp_variances(var):
    worst = var.min(initial=0.0)
    if worst < -1e-10:
        logger.warning("clamping negative predictive variance %.3e to 0", worst)
    return np.maximum(var, 0.0)


# ---------------------------------------------------------------------------
# hyperparameter fitting


#: Nelder-Mead stops when the simplex spans less than these in log-parameter
#: space and in negative log marginal likelihood.
XATOL = 1e-3
FATOL = 1e-3
#: Range of the noise standard deviation for learned-noise restarts.
NOISE_STD_BOUNDS = (1e-5, 1.0)


@dataclass
class OptConfig:
    """Settings for the derivative-free marginal-likelihood search."""

    restarts: int = 2
    seed: int = 0
    maxiter: int = 200
    learn_noise: bool = False


@dataclass
class FitResult:
    """Best hyperparameters found and the number of objective evaluations.

    ``discarded`` counts the evaluations scored -inf because they failed:
    per exception type name, and under "nan" those whose likelihood was nan.
    """

    theta: SeHyperparams
    lml: float
    n_evals: int = 0
    discarded: dict = field(default_factory=dict)


class _FamilyChanged(ValueError):
    """A kernel family's operator or order at some theta is not the one at ``init``."""


class _Evidence:
    """theta -> log marginal likelihood of ``data`` under ``family(theta)``, with no model.

    The Kronecker decision, the pairwise differences of the training inputs
    and y in the factor's column layout are free of theta: they are made
    once, from ``family(init)``.  A call factors the noisy Gram matrix as
    :func:`fit_gp` does and solves for alpha with LAPACK ``dpotrs``, the
    solve ``cho_solve`` runs.  Raises ``_FamilyChanged`` when
    ``family(theta)`` has another operator or order than ``family(init)``.
    """

    def __init__(self, data, family, init):
        kernel = family(init)
        _check_out_dim(kernel, data)
        self.family = family
        self.operator, self.order = kernel.operator, kernel.order
        self.kronecker = identity_factor(kernel) is not None
        self.repeats = kernel.shape[0] if self.kronecker else 1
        self.X = data.inputs
        self.differences = tuple(pair_differences(self.X, self.X))
        self.y = data.y_flat
        self.y_columns = self.y.reshape(-1, self.repeats)

    def __call__(self, theta):
        kernel = self.family(theta)
        if (kernel.operator is not self.operator and kernel.operator != self.operator
                or kernel.order != self.order):
            raise _FamilyChanged("the kernel family's operator or order depends on theta")
        # the factor identity_factor(kernel) would return
        factor = DiagonalKernel(kernel.theta, 1, kernel.in_dim) if self.kronecker else kernel
        L, _, _ = _factor_data(factor, self.X, theta.noise_variance, self.differences)
        # mirrors fit_gp's cho_solve check: a non-finite factor or solution
        # is an error there, and only its diagonal and alpha can show one
        # (dpotrf fails on a non-finite entry below the diagonal)
        alpha, _ = lapack.dpotrs(L, self.y_columns, lower=1)
        if not (np.isfinite(L.diagonal()).all() and np.isfinite(alpha).all()):
            raise ValueError("array must not contain infs or NaNs")
        return _log_evidence(self.y, alpha.reshape(-1), L, self.repeats)


def fit_hyperparameters(data, kernel_family, init, opt_config=None):
    """Maximize the log marginal likelihood over log-hyperparameters.

    Runs a Nelder-Mead simplex on (log signal std, log length scale, and
    optionally log noise std) from ``init`` plus ``restarts - 1`` random
    log-uniform starting points.  Deterministic for a fixed seed.  Every
    evaluation scores the same value as ``log_marginal_likelihood(fit_gp(
    data, kernel_family(theta), theta.noise_variance))``, or -inf where that
    raises; no model is built, so callers fit the winning theta themselves.

    Parameters
    ----------
    kernel_family : callable mapping SeHyperparams to a matrix kernel whose
        operator and order do not depend on theta (every family in this
        package: theta only scales l and sv); one that changes them raises
        ``ValueError``.
    init : SeHyperparams starting point; its noise_variance is kept fixed
        unless ``opt_config.learn_noise`` is set.
    """
    from scipy.optimize import minimize    # imported here: only a fit needs it

    cfg = opt_config or OptConfig()
    rng = np.random.default_rng(cfg.seed)
    sf_bounds, ls_bounds = _default_bounds(data)

    evidence = _Evidence(data, kernel_family, init)
    fixed_noise = init.noise_variance
    n_evals = 0
    discarded = Counter()

    def theta_of(z):
        sv = np.exp(2.0 * z[0])
        ls = np.exp(z[1])
        nv = np.exp(2.0 * z[2]) if cfg.learn_noise else fixed_noise
        return SeHyperparams(signal_variance=sv, length_scale=ls, noise_variance=nv)

    def objective(z):
        nonlocal n_evals
        n_evals += 1
        try:
            lml = evidence(theta_of(z))
        except _FamilyChanged:
            raise
        except (NotPositiveDefinite, ValueError, OverflowError) as exc:
            discarded[type(exc).__name__] += 1
            lml = -np.inf
        if np.isnan(lml):
            discarded["nan"] += 1
            lml = -np.inf
        return -lml

    z0 = [np.log(np.sqrt(init.signal_variance)), np.log(init.length_scale)]
    if cfg.learn_noise:
        z0.append(np.log(max(np.sqrt(fixed_noise), NOISE_STD_BOUNDS[0])))
    starts = [np.array(z0)]
    for _ in range(max(cfg.restarts - 1, 0)):
        z = [rng.uniform(np.log(sf_bounds[0]), np.log(sf_bounds[1])),
             rng.uniform(np.log(ls_bounds[0]), np.log(ls_bounds[1]))]
        if cfg.learn_noise:
            z.append(rng.uniform(np.log(NOISE_STD_BOUNDS[0]),
                                 np.log(NOISE_STD_BOUNDS[1])))
        starts.append(np.array(z))

    best_z, best_val = None, np.inf
    # a failed evaluation scores inf: its overflow and the simplex's inf - inf are expected
    with np.errstate(over="ignore", invalid="ignore"):
        for z_start in starts:
            res = minimize(objective, z_start, method="Nelder-Mead",
                           options={"maxiter": cfg.maxiter, "xatol": XATOL,
                                    "fatol": FATOL, "adaptive": True})
            if res.fun < best_val:
                best_val, best_z = res.fun, res.x
    if best_z is None or not np.isfinite(best_val):
        raise RuntimeError("hyperparameter search failed on every restart")
    return FitResult(theta=theta_of(best_z), lml=-best_val, n_evals=n_evals,
                     discarded=dict(discarded))


def _default_bounds(data):
    """Restart ranges of the signal std and length scale, from the data's scales."""
    y_scale = max(float(np.std(data.outputs)), 1e-8)
    span = float(np.max(np.ptp(data.inputs, axis=0)))
    span = span if span > 0 else 1.0
    return (1e-2 * y_scale, 1e2 * y_scale), (5e-2 * span, 2.0 * span)
