"""Multi-output Gaussian-process regression on block Gram matrices.

Observations of a K-component field at N points are flattened
point-major (all components of point 1, then point 2, ...), matching the
K x K blocks produced by the matrix kernels.  Factorization adds noise
variance on the diagonal and escalates a small jitter when the matrix is
numerically semidefinite; the jitter actually used is recorded on the
model so experiments can report it.

When the kernel is the constant K x K identity applied to a scalar
kernel k (the independent-output kernel) and nothing but the data is
conditioned on, the noisy Gram matrix is kron(K_k + noise I, I_K) in
point-major layout: ``fit_gp`` then factors the N x N matrix once and
solves it for all K output columns together, and ``predict`` shares one
variance solve between the components.  Every other model factors the
dense NK x NK matrix.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import minimize

from .kernels import SeHyperparams, identity_factor

logger = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))


class NotPositiveDefinite(Exception):
    """Factorization failed even after the maximum jitter escalation."""


#: Diagonal-inflation schedule of :func:`cholesky_jitter`:
#: JITTER_BASE_SCALE * tr(M)/dim * 10^k for k = 0..JITTER_MAX_ESCALATIONS.
JITTER_BASE_SCALE = 1e-12
JITTER_MAX_ESCALATIONS = 6


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
    def n_points(self):
        return self.inputs.shape[0]

    @property
    def in_dim(self):
        return self.inputs.shape[1]

    @property
    def out_dim(self):
        return self.outputs.shape[1]

    @property
    def y_flat(self):
        return self.outputs.reshape(-1)


@dataclass
class PredictionResult:
    """Posterior means and marginal variances, both (M, K)."""

    means: np.ndarray
    marginal_variances: np.ndarray
    covariance: np.ndarray | None = None


def assemble_gram(kernel, X, noise_variance=0.0):
    """Block Gram matrix of a matrix kernel with noise on the diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = kernel.eval_pairwise(X, X)
    n, r, _, c = k.shape
    if r != c:
        raise ValueError("Gram assembly needs a square kernel")
    gram = k.reshape(n * r, n * r)
    if noise_variance:
        gram[np.diag_indices(n * r)] += noise_variance
    return gram


def cross_gram(kernel, X1, X2):
    """Cross-covariance block matrix, shape (N1*rows, N2*cols)."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    k = kernel.eval_pairwise(X1, X2)
    n1, r, n2, c = k.shape
    return k.reshape(n1 * r, n2 * c)


def cholesky_jitter(M):
    """Lower Cholesky factor with escalating jitter.

    Returns (L, jitter_used).  Raises NotPositiveDefinite when the
    largest jitter in the schedule still fails.
    """
    M = np.asarray(M, dtype=float)
    dim = M.shape[0]
    try:
        return np.linalg.cholesky(M), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = np.trace(M) / dim
    if scale <= 0:
        scale = 1.0
    jitter = JITTER_BASE_SCALE * scale
    for _ in range(JITTER_MAX_ESCALATIONS + 1):
        try:
            L = np.linalg.cholesky(M + jitter * np.eye(dim))
            logger.debug("cholesky needed jitter %.3e", jitter)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NotPositiveDefinite(
        f"matrix not factorizable after jitter escalation to {jitter / 10.0:.3e}"
    )


class ObservationBlock(NamedTuple):
    """Zero-valued, noise-free linear observations L[f] at a set of points.

    ``cross`` is the matrix kernel cov(f(x), L[f](x')) and ``prior`` is
    cov(L[f](x), L[f](x')); ``points`` is (Nc, D).
    """

    cross: object
    prior: object
    points: np.ndarray


class GpModel:
    """A fitted GP: kernel, training data, and the factored joint Gram matrix.

    ``L`` factors the Gram matrix of ``factor``, and the joint Gram matrix
    is kron(L L^T, I_repeats): ``factor`` is the scalar kernel of an
    independent-output ``kernel`` with ``repeats`` components, else
    ``kernel`` itself with ``repeats`` 1.  ``block`` is the
    :class:`ObservationBlock` conditioned on besides the data, or None;
    ``alpha`` is the flattened point-major K^-1 y over the data rows,
    then the block's rows.
    """

    def __init__(self, kernel, factor, repeats, data, L, alpha, jitter, block=None):
        self.kernel = kernel
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

    With an :class:`ObservationBlock` the GP is conditioned jointly on
    the data and on the block's zero-valued observations.  Without one,
    an independent-output kernel factors only its scalar N x N Gram matrix.
    """
    _check_out_dim(kernel, data)
    if noise_variance is None:
        noise_variance = data.noise_std ** 2
    factor, repeats = kernel, 1
    if block is None:
        factor, repeats = identity_factor(kernel) or (kernel, 1)
    gram = assemble_gram(factor, data.inputs, noise_variance)
    y = data.y_flat.reshape(-1, repeats)    # column c holds output c in the Kronecker case
    if block is not None:
        k_dc = cross_gram(block.cross, data.inputs, block.points)
        k_cc = cross_gram(block.prior, block.points, block.points)
        gram = np.block([[gram, k_dc], [k_dc.T, k_cc]])
        y = np.concatenate([y, np.zeros((k_cc.shape[0], 1))])
        del k_dc, k_cc  # the joint matrix holds copies; free them before factoring
    L, jitter = cholesky_jitter(gram)
    alpha = cho_solve((L, True), y).reshape(-1)
    return GpModel(kernel, factor, repeats, data, L, alpha, jitter, block)


def _check_out_dim(kernel, data):
    """Raise a ``ValueError`` unless the kernel's output and input counts fit the data."""
    if kernel.shape[0] != data.out_dim:
        raise ValueError(f"the kernel has {kernel.shape[0]} output components, "
                         f"the data {data.out_dim}")
    if kernel.in_dim not in (None, data.in_dim):
        raise ValueError(f"the kernel is over {kernel.in_dim} input variables, "
                         f"the data {data.in_dim}")


def log_marginal_likelihood(model):
    """Gaussian log evidence of the training outputs (and zero-valued blocks)."""
    y = model.data.y_flat
    return float(
        -0.5 * y @ model.alpha[:y.size]
        - model.repeats * np.sum(np.log(np.diag(model.L)))
        - 0.5 * model.joint_dim * LOG_2PI
    )


def predict(model, Xstar, full_cov=False):
    """Posterior mean and marginal variance of the field at new points."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    m, k_out, repeats = Xstar.shape[0], model.data.out_dim, model.repeats
    C = cross_gram(model.factor, Xstar, model.data.inputs)
    if model.block is not None:
        C = np.hstack([C, cross_gram(model.block.cross, Xstar, model.block.points)])
    means = (C @ model.alpha.reshape(-1, repeats)).reshape(m, k_out)
    # C is not used again: the solve and the square reuse its memory
    v = solve_triangular(model.L, C.T, lower=True, overwrite_b=True)
    covariance = None
    if full_cov:
        prior_full = cross_gram(model.factor, Xstar, Xstar)
        covariance = np.kron(prior_full - v.T @ v, np.eye(repeats))
    # stationary kernels: k(x, x) is k(0, 0) at every point
    origin = np.zeros(Xstar.shape[1])
    prior_diag = np.tile(np.diag(model.factor.eval(origin, origin)), m)
    variances = prior_diag - np.sum(np.square(v, out=v), axis=0)
    return PredictionResult(
        means=means,
        marginal_variances=np.repeat(_clamp_variances(variances), repeats).reshape(m, k_out),
        covariance=covariance,
    )


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
    """Best hyperparameters found and the number of objective evaluations."""

    theta: SeHyperparams
    lml: float
    n_evals: int = 0


def fit_hyperparameters(data, kernel_family, init, opt_config=None):
    """Maximize the log marginal likelihood over log-hyperparameters.

    Runs a Nelder-Mead simplex on (log signal std, log length scale, and
    optionally log noise std) from ``init`` plus ``restarts - 1`` random
    log-uniform starting points.  Deterministic for a fixed seed.

    Parameters
    ----------
    kernel_family : callable mapping SeHyperparams to a matrix kernel.
    init : SeHyperparams starting point; its noise_variance is kept fixed
        unless ``opt_config.learn_noise`` is set.
    """
    cfg = opt_config or OptConfig()
    rng = np.random.default_rng(cfg.seed)
    sf_bounds, ls_bounds = _default_bounds(data)

    _check_out_dim(kernel_family(init), data)
    fixed_noise = init.noise_variance
    n_evals = 0

    def theta_of(z):
        sv = np.exp(2.0 * z[0])
        ls = np.exp(z[1])
        nv = np.exp(2.0 * z[2]) if cfg.learn_noise else fixed_noise
        return SeHyperparams(signal_variance=sv, length_scale=ls, noise_variance=nv)

    def objective(z):
        nonlocal n_evals
        n_evals += 1
        try:
            theta = theta_of(z)
            model = fit_gp(data, kernel_family(theta), noise_variance=theta.noise_variance)
            lml = log_marginal_likelihood(model)
        except (NotPositiveDefinite, ValueError, FloatingPointError,
                np.linalg.LinAlgError, OverflowError):
            lml = -np.inf
        if np.isnan(lml):
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
    for z_start in starts:
        res = minimize(objective, z_start, method="Nelder-Mead",
                       options={"maxiter": cfg.maxiter, "xatol": XATOL,
                                "fatol": FATOL, "adaptive": True})
        if res.fun < best_val:
            best_val, best_z = res.fun, res.x
    if best_z is None or not np.isfinite(best_val):
        raise RuntimeError("hyperparameter search failed on every restart")
    return FitResult(theta=theta_of(best_z), lml=-best_val, n_evals=n_evals)


def _default_bounds(data):
    """Restart ranges of the signal std and length scale, from the data's scales."""
    y_scale = max(float(np.std(data.outputs)), 1e-8)
    span = float(np.max(np.ptp(data.inputs, axis=0)))
    span = span if span > 0 else 1.0
    return (1e-2 * y_scale, 1e2 * y_scale), (5e-2 * span, 2.0 * span)
