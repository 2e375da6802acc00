"""Squared-exponential kernels and the matrix kernels built from them.

The scalar base kernel k(x, x') = sv * exp(-||x - x'||^2 / (2 l^2))
depends only on the difference r = x - x', so d/dx = d/dr and
d/dx' = -d/dr.  Every matrix kernel here is an operator matrix in d/dr
applied to one SE kernel: entry (i, j) is P_ij(d/dr) k.  Each monomial
has a closed form, a product of probabilists' Hermite polynomials in
r_d / l times the kernel itself, and one evaluator turns the matrix into
numbers.

Kernel algebra is operator-matrix algebra (:func:`fieldgp.operators.
symbolic_product`).  The covariance of ``f = G[g]`` for a scalar prior on
g is G adj(G) (:func:`covariance_operator`), where adj transposes and
maps d to -d because its operators act on the second argument; applying
F to the first argument of P gives F P, to the second P adj(F).
:func:`transform_kernel` gives g the signal variance sv; a constraint's
:func:`field_family` gives it to the field, g getting sv l^(2q) for a G of
degree q.  The curl-free kernel is the curl's field family (G is the
gradient), the diagonal kernel the constant identity (G = I).
"""

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .operators import (DimensionMismatch, OperatorMatrix, OperatorPoly, construct_g,
                        make_curl_operator_3d, symbolic_product)

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

    @classmethod
    def from_dict(cls, d):
        """From a JSON object: a key other than the three fields is an error."""
        try:
            return cls(**{key: float(value) for key, value in d.items()})
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed hyperparams {d!r}: {exc!r}") from None


def se_derivative(idx, x, x2, theta):
    """Exact mixed partial derivative of the SE kernel at a pair of points.

    ``idx = (alpha, beta)``: alpha differentiates with respect to x, beta
    with respect to x2, to any combined order.  It is the monomial
    (-1)^|beta| (d/dr)^(alpha + beta), evaluated by the Hermite recurrence.
    """
    alpha, beta = tuple(idx[0]), tuple(idx[1])
    dim = np.shape(x)[-1]
    if not len(alpha) == len(beta) == dim:
        raise DimensionMismatch(f"multi-index is ({len(alpha)}, {len(beta)})-"
                                f"dimensional, points are {dim}-dimensional")
    if any(e < 0 for e in alpha + beta):
        raise ValueError("derivative exponents must be non-negative")
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    term = OperatorPoly.monomial(dim, gamma, -1 if sum(beta) % 2 else 1)
    return float(MatrixKernelExpr(OperatorMatrix([[term]]), theta).eval(x, x2)[0, 0])


# ---------------------------------------------------------------------------
# matrix-valued kernels


#: Point pairs per evaluation block, so that the block's dozen or so
#: temporaries stay in a core's L2 cache.
_BLOCK_PAIRS = 1 << 14


def _compile(operator, theta):
    """(plan, highest Hermite order per dimension) for an operator applied to k.

    Plan entries are (i, j, source, terms) for the nonzero entries: terms
    is a sorted tuple of (gamma, coeff) with gamma a sparse multi-index of
    (dimension, order) pairs, so with u = (x - x')/l the entry is
    sum coeff * prod_{(d, n) in gamma} He_n(u_d) * exp(-|u|^2/2); source is
    an earlier entry with identical terms, whose values are copied, or None.
    Every coefficient must be a normal float: one that under- or overflows
    in the fold would evaluate the wrong kernel.
    """
    sv, ell = theta.signal_variance, theta.length_scale
    plan, first, orders = [], {}, {}
    for i, row in enumerate(operator.entries):
        for j, poly in enumerate(row):
            terms = tuple(sorted(
                (tuple((d, n) for d, n in enumerate(mono) if n),
                 float(-c if sum(mono) % 2 else c) * sv * ell ** -sum(mono))
                for mono, c in poly.terms.items()))
            if not all(np.finfo(float).tiny <= abs(coeff) < np.inf for _, coeff in terms):
                raise ValueError(f"signal_variance {sv!r} and length_scale {ell!r} put an "
                                 "operator coefficient outside the normal float range")
            if terms:
                source = first.setdefault(terms, (i, j))
                plan.append((i, j, None if source == (i, j) else source, terms))
                for d, n in (g for gamma, _ in terms for g in gamma):
                    orders[d] = max(orders.get(d, 0), n)
    return plan, orders


def _eval_block(plan, orders, ell, X, X2, out):
    """Write the compiled entries for the pairs of X and X2 into ``out``."""
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


class MatrixKernelExpr:
    """An operator matrix in d/dr applied to one SE kernel: the one kernel type.

    Entry (i, j) is ``operator.entry(i, j)`` applied to k; the operator
    stays symbolic, so further operators compose with it and an identity
    like "divergence of a divergence-free kernel" cancels to the zero
    matrix.  ``entries`` is its grid of terms dicts (monomial exponents
    -> coefficient).  A monomial g evaluates by
    d^g/dr^g k = (-1)^|g| sv l^-|g| prod_d He_{g_d}(u_d) k/sv.
    """

    def __init__(self, operator, theta):
        self.operator = operator
        self.in_dim = operator.vars
        self.shape = (operator.rows, operator.cols)
        self.theta = theta
        self._plan = None

    @property
    def entries(self):
        return tuple(tuple(poly.terms for poly in row) for row in self.operator.entries)

    def eval(self, x, x2):
        """The (rows, cols) kernel matrix at one pair of points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        return self.eval_pairwise(x, x2)[0, :, 0, :]

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
            self._plan = _compile(self.operator, self.theta)
        rows, cols = self.shape
        out = np.zeros((X.shape[0], rows, X2.shape[0], cols))
        step = max(1, _BLOCK_PAIRS // max(X2.shape[0], 1))
        for lo in range(0, X.shape[0], step):
            _eval_block(*self._plan, self.theta.length_scale,
                        X[lo:lo + step], X2, out[lo:lo + step])
        return out


class DiagonalKernel(MatrixKernelExpr):
    """Independent-output kernel: the constant K x K identity applied to k.

    The identity is over ``in_dim`` variables, or over one variable when
    ``in_dim`` is None.  Constant entries index no dimension, so the
    kernel then evaluates at any input dimension, but an operator over
    D > 1 variables applies to it only when ``in_dim`` is D.
    """

    def __init__(self, theta, out_dim, in_dim=None):
        if out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        super().__init__(identity_operator(out_dim, 1 if in_dim is None else in_dim), theta)
        self.in_dim = in_dim

    # bound on each family's own class, so that a profiler wrapping it
    # (perfbench/spans.py) times the families apart
    eval_pairwise = MatrixKernelExpr.eval_pairwise


@cache
def identity_operator(size, p):
    """The constant size x size identity over p variables, built once per shape."""
    one, zero = OperatorPoly.constant(p, 1), OperatorPoly.zero(p)
    return OperatorMatrix([[one if i == j else zero for j in range(size)]
                           for i in range(size)])


def identity_factor(kernel):
    """(k, K) when ``kernel`` is the constant K x K identity applied to the
    scalar kernel k, else None.  Its Gram matrices are then kron(k's, I_K)
    in point-major layout.

    k is the 1 x 1 diagonal kernel at the same theta and input dimension,
    so a profiler wrapping that family's ``eval_pairwise`` still times it.
    """
    rows = kernel.shape[0]
    if kernel.operator != identity_operator(rows, kernel.operator.vars):
        return None
    return DiagonalKernel(kernel.theta, 1, kernel.in_dim), rows


class CurlFreeKernel(MatrixKernelExpr):
    """The curl's field family, built on first use: entry (a, b) is
    sv exp(-|u|^2/2) (delta_ab - u_a u_b).  The class stays because
    ``perfbench/spans.py`` times this family's ``eval_pairwise`` by class.
    """

    def __init__(self, theta):
        kernel = _curl_free_family()(theta)
        super().__init__(kernel.operator, kernel.theta)
        self._plan = kernel._plan

    eval_pairwise = MatrixKernelExpr.eval_pairwise


@cache
def _curl_free_family():
    return field_family(construct_g(make_curl_operator_3d())[0])


class SumKernel(MatrixKernelExpr):
    """A sum of kernels is the kernel of their operators' sum; no pipeline
    builds one.  The class stays because ``perfbench/spans.py`` wraps its
    ``eval_pairwise`` by class; drop it with the next benchmark change.
    """

    eval_pairwise = MatrixKernelExpr.eval_pairwise


def covariance_operator(G):
    """G adj(G): applied to k, the covariance of ``f = G[g]``; free of theta.

    Entry (i, j) sums, over potential components c, G_ic acting on the
    first argument times G_jc acting on the second.
    """
    return symbolic_product(G, _adjoint(G))


def transform_kernel(G, theta):
    """Covariance of ``f = G[g]`` for a scalar SE prior on g.

    ``G`` is an n x P operator matrix over the input dimension.  The
    result is :func:`covariance_operator` G adj(G) in d/dr applied to one
    SE kernel.
    """
    return MatrixKernelExpr(covariance_operator(G), theta)


def field_family(G):
    """theta -> :func:`transform_kernel` of G at potential variance sv l^(2q), q
    G's highest derivative order, so that sv is the field's variance.  A
    potential variance or a folded operator coefficient that is not a normal
    float raises a ``ValueError`` that names theta.
    """
    P, q = covariance_operator(G), G.max_degree()

    def family(theta):
        sv, ell = theta.signal_variance, theta.length_scale
        try:
            potential_sv = sv * ell ** (2 * q)
        except OverflowError:
            potential_sv = np.inf
        if not np.finfo(float).tiny <= potential_sv < np.inf:
            raise ValueError(f"signal_variance {sv!r} and length_scale {ell!r} put "
                             f"sv*l^{2 * q} outside the normal float range")
        kernel = MatrixKernelExpr(P, replace(theta, signal_variance=potential_sv))
        try:  # compiled here, so that the error names theta rather than theta'
            kernel._plan = _compile(P, kernel.theta)
        except ValueError:
            raise ValueError(f"signal_variance {sv!r} and length_scale {ell!r} put an "
                             "operator coefficient outside the normal float range") from None
        return kernel

    return family


def apply_operator_to_expr(F, expr, side):
    """Apply an operator matrix to one argument of a matrix kernel expression.

    ``side="left"`` returns F_x K (operators act on the first argument of
    every entry), the operator product F P; ``side="right"`` returns
    K F_x'^T (operators act on the second argument), P adj(F).  Either
    composition can cancel symbolically; the all-zero expression is a
    valid result.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "left":
        return MatrixKernelExpr(symbolic_product(F, expr.operator), expr.theta)
    return MatrixKernelExpr(symbolic_product(expr.operator, _adjoint(F)), expr.theta)


def _adjoint(F):
    """F acting on the second argument, in d/dr: transposed, and d/dx' = -d/dr."""
    return OperatorMatrix([[OperatorPoly(F.vars, {mono: -c if sum(mono) % 2 else c
                                                  for mono, c in F.entry(i, j).terms.items()})
                            for i in range(F.rows)] for j in range(F.cols)])


# ---------------------------------------------------------------------------
# kernel specs (JSON wire format)


#: The keys of each kernel spec type besides "type" and "hyperparams".
_SPEC_KEYS = {"diagonal": {"out_dim", "in_dim"}, "curl_free_3d": set(),
              "transformed": {"g_operator", "f_operator", "max_degree"}}


def kernel_family_from_spec(spec, default_out_dim=None):
    """(family, theta) from a kernel's JSON spec dictionary.

    ``{"type": "diagonal"|"curl_free_3d"|"transformed", "hyperparams": {...}}``
    with ``"out_dim"``/``"in_dim"`` for diagonal kernels and
    ``"g_operator"`` (an operator spec, or "auto-from-F" together with
    ``"f_operator"``) for transformed kernels; an explicit G given with an
    F must satisfy F G = 0 exactly; other keys are an error.
    ``family(theta)`` is the kernel at field variance sv; G and G adj(G)
    are built once, here, not per fit evaluation.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"kernel spec must be an object, not {type(spec).__name__}")
    kind = spec.get("type")
    known = _SPEC_KEYS.get(kind) if isinstance(kind, str) else None
    if known is None:
        raise ValueError(f"unknown kernel type {kind!r}")
    unknown = set(spec) - known - {"type", "hyperparams"}
    if unknown:
        raise ValueError(f"unknown keys in a {kind} kernel spec: {sorted(unknown)}")
    theta = SeHyperparams.from_dict(spec.get("hyperparams", {}))
    if kind == "diagonal":
        out_dim = _spec_int(spec, "out_dim", default_out_dim or 1)
        in_dim = _spec_int(spec, "in_dim", None)
        return (lambda th: DiagonalKernel(th, out_dim, in_dim=in_dim)), theta
    if kind == "curl_free_3d":
        return CurlFreeKernel, theta
    g_spec = spec.get("g_operator", "auto-from-F")
    if g_spec == "auto-from-F":
        if "f_operator" not in spec:
            raise ValueError("auto-from-F requires an 'f_operator' spec")
        F = OperatorMatrix.from_json_dict(spec["f_operator"])
        G, _ = construct_g(F, max_degree=_spec_int(spec, "max_degree", 3))
    else:
        G = OperatorMatrix.from_json_dict(g_spec)
        if "f_operator" in spec:
            residual = symbolic_product(
                OperatorMatrix.from_json_dict(spec["f_operator"]), G)
            if not residual.is_zero():
                raise ValueError("g_operator does not annihilate f_operator; "
                                 f"F G =\n{residual.render()}")
    return field_family(G), theta


def _spec_int(spec, key, default):
    """The integer ``spec[key]``, or ``default`` when the key is absent."""
    if key not in spec:
        return default
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"kernel spec {key!r} must be an integer, not {value!r}")
    return value
