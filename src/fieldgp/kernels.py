"""Squared-exponential kernels, their mixed derivatives, and matrix kernels.

The scalar base kernel is k(x, x') = sv * exp(-||x - x'||^2 / (2 l^2)).
Because it is a product of one-dimensional Gaussians in the difference
r = x - x', every mixed partial derivative with respect to entries of x
and x' has a closed form: a product of probabilists' Hermite polynomials
in r_d / l times the kernel itself.

Every matrix kernel is a grid of such derivative terms of one base
kernel, and one evaluator turns the grid into numbers.  A kernel
transformed by an operator matrix (covariance of ``f = G[g]`` for a
scalar prior on g) is bookkeeping over multi-indices, and applying a
further operator to either argument composes exponents.  The diagonal
kernel is the order-0 identity grid, and the curl-free kernel is the
gradient-transformed grid scaled by l^2.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import DimensionMismatch, OperatorMatrix, OperatorPoly

#: Largest supported total derivative order (both arguments combined).
MAX_DERIVATIVE_ORDER = 4


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds MAX_DERIVATIVE_ORDER."""


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
        try:
            return cls(
                signal_variance=float(d["signal_variance"]),
                length_scale=float(d["length_scale"]),
                noise_variance=float(d.get("noise_variance", 0.0)),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed hyperparams {d!r}: {exc!r}") from None


class DerivativeMultiIndex(NamedTuple):
    """Derivative exponents for the first (alpha) and second (beta) argument."""

    alpha: tuple
    beta: tuple

    @property
    def order(self):
        return sum(self.alpha) + sum(self.beta)

    def validate(self, dim):
        if not len(self.alpha) == len(self.beta) == dim:
            raise DimensionMismatch(f"multi-index is ({len(self.alpha)}, {len(self.beta)})-"
                                    f"dimensional, points are {dim}-dimensional")
        if any(e < 0 for e in self.alpha + self.beta):
            raise ValueError("derivative exponents must be non-negative")
        if self.order > MAX_DERIVATIVE_ORDER:
            raise DerivativeOrderError(
                f"total derivative order {self.order} exceeds the supported "
                f"maximum {MAX_DERIVATIVE_ORDER}"
            )


def se_derivative(idx, x, x2, theta):
    """Exact mixed partial derivative of the SE kernel at a pair of points.

    ``idx.alpha`` differentiates with respect to x, ``idx.beta`` with
    respect to x2, both up to combined order MAX_DERIVATIVE_ORDER.
    """
    idx = DerivativeMultiIndex(tuple(idx[0]), tuple(idx[1]))
    return float(MatrixKernelExpr(np.shape(x)[-1], [[{idx: 1}]], theta).eval(x, x2)[0, 0])


def se_eval(x, x2, theta):
    """Squared-exponential kernel value at a pair of points."""
    zero = (0,) * np.shape(x)[-1]
    return se_derivative((zero, zero), x, x2, theta)


# ---------------------------------------------------------------------------
# matrix-valued kernels


class MatrixKernel:
    """Base for matrix kernels whose entries are derivatives of one SE kernel.

    A family lists its nonzero entries through ``_cells()`` as
    ((i, j), terms) with terms a sorted tuple of (gamma, coeff): gamma is a
    sparse multi-index of (dimension, order) pairs.  With u = (x - x')/l,
    entry (i, j) is sum coeff * prod_{(d, n) in gamma} He_n(u_d) * exp(-|u|^2/2).
    """

    shape = None  # (rows, cols)
    theta = None
    in_dim = None
    _plan = None

    @property
    def out_dim(self):
        r, c = self.shape
        if r != c:
            raise ValueError("kernel is not square")
        return r

    def eval_pairwise(self, X, X2):
        """Kernel matrices of every pair of rows of X (N1, D) and X2 (N2, D).

        Returns the point-major block layout (N1, rows, N2, cols): entry
        [a, i, b, j] is component (i, j) of k(X[a], X2[b]), so reshaping
        to (N1*rows, N2*cols) gives the block Gram matrix without a copy.
        """
        X = np.asarray(X, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        dim = X.shape[1]
        if X2.shape[1] != dim or self.in_dim not in (None, dim):
            raise DimensionMismatch("point dimension does not match kernel")
        if self._plan is None:
            self._plan = _compile(self._cells())
        rows, cols = self.shape
        out = np.zeros((X.shape[0], rows, X2.shape[0], cols))
        step = max(1, _BLOCK_PAIRS // max(X2.shape[0], 1))
        for lo in range(0, X.shape[0], step):
            _eval_block(*self._plan, self.theta.length_scale,
                        X[lo:lo + step], X2, out[lo:lo + step])
        return out

    def eval(self, x, x2):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        return self.eval_pairwise(x, x2)[0, :, 0, :]

    __call__ = eval


#: Point pairs per evaluation block, so that the block's dozen or so
#: temporaries stay in a core's L2 cache.
_BLOCK_PAIRS = 1 << 14


def _compile(cells):
    """(plan, highest Hermite order per dimension) for a kernel's cells.

    Plan entries are (i, j, source, terms); ``source`` is an earlier entry
    with identical terms, whose values are copied, or None.
    """
    plan, first, orders = [], {}, {}
    for (i, j), terms in cells:
        if terms:
            source = first.setdefault(terms, (i, j))
            plan.append((i, j, None if source == (i, j) else source, terms))
            for d, n in (g for gamma, _ in terms for g in gamma):
                orders[d] = max(orders.get(d, 0), n)
    return plan, orders


def _eval_block(plan, orders, ell, X, X2, out):
    """Write the compiled cells for the pairs of X and X2 into ``out``."""
    u = [np.subtract.outer(X[:, d], X2[:, d]) / ell for d in range(X.shape[1])]
    k = u[0] * u[0]
    for u_d in u[1:]:
        k += u_d * u_d
    k = np.exp(-0.5 * k)
    hermite = {}
    for d, top in orders.items():
        h_prev, h = 1.0, u[d]
        hermite[d, 1] = h
        for n in range(2, top + 1):  # He_n = u He_{n-1} - (n-1) He_{n-2}
            h_prev, h = h, u[d] * h - (n - 1) * h_prev
            hermite[d, n] = h
    for i, j, source, terms in plan:
        if source is not None:
            out[:, i, :, j] = out[:, source[0], :, source[1]]
            continue
        value = None
        for gamma, coeff in terms:
            for g in gamma:
                coeff = coeff * hermite[g]
            value = coeff if value is None else value + coeff
        np.multiply(value, k, out=out[:, i, :, j])


class MatrixKernelExpr(MatrixKernel):
    """Matrix kernel whose entries are derivative combinations of one SE kernel.

    ``entries[i][j]`` maps :class:`DerivativeMultiIndex` to a real
    coefficient.  Construction validates the derivative-order budget and
    drops exactly-cancelling terms, so an operator identity like
    "divergence of a divergence-free kernel" reduces to an all-empty grid.
    The entries stay symbolic for operator application.  They evaluate by
    d^alpha/dx d^beta/dx' k = (-1)^|alpha| sv l^-|g| prod_d He_{g_d}(u_d) k/sv,
    g = alpha + beta, so terms with equal g merge into one cell term.
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
                    idx.validate(in_dim)
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

    def _cells(self):
        sv, ell = self.theta.signal_variance, self.theta.length_scale
        for i, row in enumerate(self.entries):
            for j, cell in enumerate(row):
                merged = {}
                for idx, coeff in cell.items():
                    gamma = tuple((d, a + b) for d, (a, b)
                                  in enumerate(zip(idx.alpha, idx.beta)) if a + b)
                    sign = -1 if sum(idx.alpha) % 2 else 1
                    merged[gamma] = merged.get(gamma, 0) + sign * coeff
                yield (i, j), tuple(sorted(
                    (gamma, float(c) * sv * ell ** -sum(n for _, n in gamma))
                    for gamma, c in merged.items() if c != 0))

    eval_pairwise = MatrixKernel.eval_pairwise


class DiagonalKernel(MatrixKernel):
    """Independent-output kernel: the scalar SE kernel times the identity.

    Its cells are the order-0 term on the diagonal, so any input dimension
    works; ``in_dim``, when given, is checked against the points.
    """

    def __init__(self, theta, out_dim, in_dim=None):
        if out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        self.theta = theta
        self.shape = (out_dim, out_dim)
        self.in_dim = in_dim

    def _cells(self):
        return [((i, i), (((), float(self.theta.signal_variance)),))
                for i in range(self.shape[0])]

    eval_pairwise = MatrixKernel.eval_pairwise

    def as_expr(self, in_dim):
        """The same kernel as an explicit derivative expression (for operator use)."""
        zero = ((0,) * in_dim, (0,) * in_dim)
        k = self.shape[0]
        entries = [[{DerivativeMultiIndex(*zero): 1} if i == j else {}
                    for j in range(k)] for i in range(k)]
        return MatrixKernelExpr(in_dim, entries, self.theta)


class CurlFreeKernel(MatrixKernelExpr):
    """3x3 kernel whose sample fields are gradients of a scalar SE potential.

    It is l^2 * ``transform_kernel(grad, theta)``, with l^2 folded into the
    coefficients: entry (a, b) is sv exp(-|u|^2/2) (delta_ab - u_a u_b), so
    sv stays the field variance.
    """

    def __init__(self, theta):
        grad = OperatorMatrix([[OperatorPoly.monomial(3, e)]
                               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        ell2 = theta.length_scale ** 2
        super().__init__(3, [[{idx: ell2 * c for idx, c in cell.items()} for cell in row]
                             for row in transform_kernel(grad, theta).entries], theta)

    eval_pairwise = MatrixKernel.eval_pairwise


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
        parts = [transform_kernel(OperatorMatrix([[G.entry(j, c)] for j in range(G.rows)]), th)
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
    if side == "right":
        # K F'^T is the argument swap of F applied to the argument swap of K
        return _swap_arguments(apply_operator_to_expr(F, _swap_arguments(expr), "left"))
    rows, cols = expr.shape
    if F.cols != rows:
        raise DimensionMismatch(f"F has {F.cols} columns but the kernel has {rows} rows")
    out = [[{} for _ in range(cols)] for _ in range(F.rows)]
    for i in range(F.rows):
        for k in range(F.cols):
            for mono, c_op in F.entry(i, k).terms.items():
                for j in range(cols):
                    for idx, c in expr.entries[k][j].items():
                        new = DerivativeMultiIndex(
                            tuple(a + m for a, m in zip(idx.alpha, mono)), idx.beta)
                        out[i][j][new] = out[i][j].get(new, 0) + c_op * c
    return MatrixKernelExpr(expr.in_dim, out, expr.theta)


def _swap_arguments(expr):
    """The expression of K(x', x)^T: entries transposed, alpha and beta swapped."""
    rows, cols = expr.shape
    return MatrixKernelExpr(
        expr.in_dim, [[{DerivativeMultiIndex(idx.beta, idx.alpha): c
                        for idx, c in expr.entries[i][j].items()} for i in range(rows)]
                      for j in range(cols)], expr.theta)


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

    if not isinstance(spec, dict):
        raise ValueError(f"kernel spec must be an object, not {type(spec).__name__}")
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
