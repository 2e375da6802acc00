"""Squared-exponential kernels, their mixed derivatives, and matrix kernels.

The scalar base kernel is k(x, x') = sv * exp(-||x - x'||^2 / (2 l^2)).
Because it is a product of one-dimensional Gaussians in the difference
r = x - x', every mixed partial derivative with respect to entries of x
and x' has a closed form: a product of probabilists' Hermite polynomials
in r_d / l times the kernel itself.

Matrix-valued kernels are represented symbolically as grids of
derivative terms applied to the base kernel, so a kernel transformed by
an operator matrix (covariance of ``f = G[g]`` for a scalar prior on g)
is just bookkeeping over multi-indices, and applying a further operator
to either argument composes exponents.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import DimensionMismatch, OperatorMatrix

#: Largest supported total derivative order (both arguments combined).
MAX_DERIVATIVE_ORDER = 4


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds the supported closed forms."""


@dataclass(frozen=True)
class SeHyperparams:
    """Hyperparameters of the squared-exponential base kernel."""

    signal_variance: float
    length_scale: float
    noise_variance: float = 0.0

    def __post_init__(self):
        if not (self.signal_variance > 0 and np.isfinite(self.signal_variance)):
            raise ValueError("signal_variance must be positive and finite")
        if not (self.length_scale > 0 and np.isfinite(self.length_scale)):
            raise ValueError("length_scale must be positive and finite")
        if not (self.noise_variance >= 0 and np.isfinite(self.noise_variance)):
            raise ValueError("noise_variance must be >= 0 and finite")

    def to_dict(self):
        return {
            "signal_variance": self.signal_variance,
            "length_scale": self.length_scale,
            "noise_variance": self.noise_variance,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            signal_variance=float(d["signal_variance"]),
            length_scale=float(d["length_scale"]),
            noise_variance=float(d.get("noise_variance", 0.0)),
        )


class DerivativeMultiIndex(NamedTuple):
    """Derivative exponents for the first (alpha) and second (beta) argument."""

    alpha: tuple
    beta: tuple

    @property
    def order(self):
        return sum(self.alpha) + sum(self.beta)

    def validate(self, dim=None):
        if len(self.alpha) != len(self.beta):
            raise DimensionMismatch("alpha and beta must have equal length")
        if dim is not None and len(self.alpha) != dim:
            raise DimensionMismatch(f"multi-index is {len(self.alpha)}-dimensional, "
                                    f"points are {dim}-dimensional")
        if any(e < 0 for e in self.alpha + self.beta):
            raise ValueError("derivative exponents must be non-negative")
        if self.order > MAX_DERIVATIVE_ORDER:
            raise DerivativeOrderError(
                f"total derivative order {self.order} exceeds the supported "
                f"maximum {MAX_DERIVATIVE_ORDER}"
            )


def se_eval(x, x2, theta):
    """Squared-exponential kernel value at a pair of points."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise DimensionMismatch("points have different dimensions")
    sq = np.sum((x - x2) ** 2)
    return theta.signal_variance * np.exp(-0.5 * sq / theta.length_scale ** 2)


def _hermite_batch(n, u):
    """Probabilists' Hermite polynomial He_n evaluated elementwise."""
    h_prev = np.ones_like(u)
    if n == 0:
        return h_prev
    h = u.copy()
    for k in range(1, n):
        h, h_prev = u * h - k * h_prev, h
    return h


def _se_derivative_batch(alpha, beta, diff, theta):
    """Mixed partial of the SE kernel on a (..., D) array of differences x - x'.

    d^alpha/dx d^beta/dx' k = (-1)^|alpha| sv l^-|g| prod_d He_{g_d}(r_d/l) k,
    with g = alpha + beta; the sign follows from the chain rule for the
    second argument, so no extra convention is applied by callers.
    """
    ell = theta.length_scale
    u = diff / ell
    value = np.exp(-0.5 * np.sum(u * u, axis=-1))
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    for d, g in enumerate(gamma):
        if g:
            value = value * _hermite_batch(g, u[..., d])
    order = sum(gamma)
    sign = -1.0 if sum(alpha) % 2 else 1.0
    return sign * theta.signal_variance * ell ** (-order) * value


def se_derivative(idx, x, x2, theta):
    """Exact mixed partial derivative of the SE kernel.

    ``idx.alpha`` differentiates with respect to x, ``idx.beta`` with
    respect to x2, both up to combined order MAX_DERIVATIVE_ORDER.
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise DimensionMismatch("points have different dimensions")
    idx = DerivativeMultiIndex(tuple(idx[0]), tuple(idx[1]))
    idx.validate(dim=x.shape[-1])
    return float(_se_derivative_batch(idx.alpha, idx.beta, x - x2, theta))


# ---------------------------------------------------------------------------
# matrix-valued kernels


class MatrixKernel:
    """Base for matrix-valued kernels: maps a pair of points to a matrix."""

    shape = None  # (rows, cols)
    theta = None

    @property
    def out_dim(self):
        r, c = self.shape
        if r != c:
            raise ValueError("kernel is not square")
        return r

    def eval_pairwise(self, X, X2):
        raise NotImplementedError

    def eval(self, x, x2):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        return self.eval_pairwise(x, x2)[0, 0]

    __call__ = eval


class MatrixKernelExpr(MatrixKernel):
    """Matrix kernel whose entries are derivative combinations of one SE kernel.

    ``entries[i][j]`` maps :class:`DerivativeMultiIndex` to a real
    coefficient.  Construction validates the derivative-order budget and
    drops exactly-cancelling terms, so an operator identity like
    "divergence of a divergence-free kernel" reduces to an all-empty grid.
    """

    def __init__(self, in_dim, entries, theta):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if rows == 0 or cols == 0:
            raise ValueError("kernel expression must be nonempty")
        clean = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged entry grid")
            clean_row = []
            for cell in row:
                terms = {}
                for idx, coeff in cell.items():
                    idx = DerivativeMultiIndex(tuple(idx[0]), tuple(idx[1]))
                    idx.validate(dim=in_dim)
                    if coeff == 0:
                        continue
                    terms[idx] = terms.get(idx, 0) + coeff
                    if terms[idx] == 0:
                        del terms[idx]
                clean_row.append(terms)
            clean.append(tuple(clean_row))
        self.in_dim = in_dim
        self.shape = (rows, cols)
        self.entries = tuple(clean)
        self.theta = theta

    def is_zero(self):
        return all(not cell for row in self.entries for cell in row)

    def eval_pairwise(self, X, X2):
        X = np.asarray(X, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        if X.shape[1] != self.in_dim or X2.shape[1] != self.in_dim:
            raise DimensionMismatch("point dimension does not match kernel")
        diff = X[:, None, :] - X2[None, :, :]
        rows, cols = self.shape
        out = np.zeros((X.shape[0], X2.shape[0], rows, cols))
        for i in range(rows):
            for j in range(cols):
                for idx, coeff in self.entries[i][j].items():
                    out[:, :, i, j] += float(coeff) * _se_derivative_batch(
                        idx.alpha, idx.beta, diff, self.theta)
        return out


class DiagonalKernel(MatrixKernel):
    """Independent-output kernel: the scalar SE kernel times the identity."""

    def __init__(self, theta, out_dim, in_dim=None):
        if out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        self.theta = theta
        self.shape = (out_dim, out_dim)
        self.in_dim = in_dim

    def eval_pairwise(self, X, X2):
        X = np.asarray(X, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        diff = X[:, None, :] - X2[None, :, :]
        k = self.theta.signal_variance * np.exp(
            -0.5 * np.sum(diff * diff, axis=-1) / self.theta.length_scale ** 2)
        return k[:, :, None, None] * np.eye(self.shape[0])

    def as_expr(self, in_dim):
        """The same kernel as an explicit derivative expression (for operator use)."""
        zero = ((0,) * in_dim, (0,) * in_dim)
        k = self.shape[0]
        entries = [[{DerivativeMultiIndex(*zero): 1} if i == j else {}
                    for j in range(k)] for i in range(k)]
        return MatrixKernelExpr(in_dim, entries, self.theta)


class CurlFreeKernel(MatrixKernel):
    """Closed-form 3x3 kernel whose sample fields are gradients of a potential.

    Uses the scaling sv * exp(-||r||^2/(2 l^2)) (I - (r/l)(r/l)^T), which
    differs from the operator-transformed gradient kernel by a constant
    factor l^2 and therefore encodes the same constraint.
    """

    def __init__(self, theta):
        self.theta = theta
        self.shape = (3, 3)
        self.in_dim = 3

    def eval_pairwise(self, X, X2):
        X = np.asarray(X, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        if X.shape[1] != 3 or X2.shape[1] != 3:
            raise DimensionMismatch("curl-free kernel expects 3-D points")
        ell = self.theta.length_scale
        u = (X[:, None, :] - X2[None, :, :]) / ell
        k = self.theta.signal_variance * np.exp(-0.5 * np.sum(u * u, axis=-1))
        outer = u[:, :, :, None] * u[:, :, None, :]
        return k[:, :, None, None] * (np.eye(3) - outer)


class SumKernel(MatrixKernel):
    """Elementwise sum of same-shape matrix kernels (per-column priors)."""

    def __init__(self, parts):
        if not parts:
            raise ValueError("need at least one kernel")
        if len({k.shape for k in parts}) != 1:
            raise DimensionMismatch("summands must share one shape")
        self.parts = tuple(parts)
        self.shape = parts[0].shape
        self.theta = parts[0].theta

    def eval_pairwise(self, X, X2):
        out = self.parts[0].eval_pairwise(X, X2)
        for part in self.parts[1:]:
            out = out + part.eval_pairwise(X, X2)
        return out


def transform_kernel(G, theta, per_column_thetas=None):
    """Covariance of ``f = G[g]`` for independent scalar SE priors on g.

    ``G`` is an n x P operator matrix over the input dimension; entry
    (i, j) of the result sums, over potential components c, the term
    "column-c operator of row i applied to the first argument times the
    column-c operator of row j applied to the second argument".

    With ``per_column_thetas`` each potential component gets its own
    hyperparameters and the result is a :class:`SumKernel`; by default a
    single shared ``theta`` yields one :class:`MatrixKernelExpr`.
    """
    if not isinstance(G, OperatorMatrix):
        raise TypeError("G must be an OperatorMatrix")
    if per_column_thetas is not None:
        if len(per_column_thetas) != G.cols:
            raise DimensionMismatch("one theta per column of G is required")
        parts = [_transform_single_column(G, c, th)
                 for c, th in enumerate(per_column_thetas)]
        return parts[0] if len(parts) == 1 else SumKernel(parts)
    n, in_dim = G.rows, G.vars
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for c in range(G.cols):
        for i in range(n):
            for j in range(n):
                cell = entries[i][j]
                for mono_i, c_i in G.entry(i, c).terms.items():
                    for mono_j, c_j in G.entry(j, c).terms.items():
                        idx = DerivativeMultiIndex(mono_i, mono_j)
                        cell[idx] = cell.get(idx, 0) + c_i * c_j
    return MatrixKernelExpr(in_dim, entries, theta)


def _transform_single_column(G, c, theta):
    column = OperatorMatrix([[G.entry(j, c)] for j in range(G.rows)])
    return transform_kernel(column, theta)


def apply_operator_to_expr(F, expr, side):
    """Apply an operator matrix to one argument of a matrix kernel expression.

    ``side="left"`` returns F_x K (operators act on the first argument of
    every entry); ``side="right"`` returns K F_x'^T (operators act on the
    second argument).  Either composition can cancel symbolically; the
    all-zero expression is a valid result.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not isinstance(expr, MatrixKernelExpr):
        raise TypeError("expr must be a MatrixKernelExpr")
    if F.vars != expr.in_dim:
        raise DimensionMismatch("operator and kernel dimensions differ")
    rows, cols = expr.shape
    if side == "left":
        if F.cols != rows:
            raise DimensionMismatch(
                f"F has {F.cols} columns but the kernel has {rows} rows")
        out = [[_compose_cell(F, expr, i, j, "left") for j in range(cols)]
               for i in range(F.rows)]
    else:
        if F.cols != cols:
            raise DimensionMismatch(
                f"F has {F.cols} columns but the kernel has {cols} columns")
        out = [[_compose_cell(F, expr, i, j, "right") for j in range(F.rows)]
               for i in range(rows)]
    return MatrixKernelExpr(expr.in_dim, out, expr.theta)


def _compose_cell(F, expr, i, j, side):
    cell = {}
    if side == "left":
        pieces = ((F.entry(i, k), expr.entries[k][j]) for k in range(F.cols))
    else:
        pieces = ((F.entry(j, k), expr.entries[i][k]) for k in range(F.cols))
    for poly, terms in pieces:
        for mono, c_op in poly.terms.items():
            for idx, c_k in terms.items():
                if side == "left":
                    new = DerivativeMultiIndex(
                        tuple(a + b for a, b in zip(idx.alpha, mono)), idx.beta)
                else:
                    new = DerivativeMultiIndex(
                        idx.alpha, tuple(a + b for a, b in zip(idx.beta, mono)))
                cell[new] = cell.get(new, 0) + c_op * c_k
    return cell


# ---------------------------------------------------------------------------
# kernel specs (JSON wire format)


def kernel_from_spec(spec, default_out_dim=None):
    """Build a kernel object from its JSON spec dictionary.

    ``{"type": "diagonal"|"curl_free_3d"|"transformed", "hyperparams": {...}}``
    with ``"out_dim"``/``"in_dim"`` for diagonal kernels and
    ``"g_operator"`` (an operator spec, or "auto-from-F" together with
    ``"f_operator"``) for transformed kernels.
    """
    from .operators import construct_g  # local import to keep module load light

    kind = spec.get("type")
    theta = SeHyperparams.from_dict(spec.get("hyperparams", {}))
    if kind == "diagonal":
        out_dim = int(spec.get("out_dim", default_out_dim or 1))
        return DiagonalKernel(theta, out_dim, in_dim=spec.get("in_dim"))
    if kind == "curl_free_3d":
        return CurlFreeKernel(theta)
    if kind == "transformed":
        g_spec = spec.get("g_operator", "auto-from-F")
        if g_spec == "auto-from-F":
            if "f_operator" not in spec:
                raise ValueError("auto-from-F requires an 'f_operator' spec")
            F = OperatorMatrix.from_json_dict(spec["f_operator"])
            G, _ = construct_g(F, max_degree=int(spec.get("max_degree", 3)))
        else:
            G = OperatorMatrix.from_json_dict(g_spec)
        return transform_kernel(G, theta)
    raise ValueError(f"unknown kernel type {kind!r}")
