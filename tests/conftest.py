"""Shared finite-difference oracles, independent of the library's own FD code."""

import mpmath as mp
import numpy as np
import pytest

from fieldgp.kernels import covariance_operator
from fieldgp.operators import OperatorMatrix


def fd_step(func, x, dim, h):
    """One central-difference level along a dimension."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[dim] += h
    xm[dim] -= h
    return (func(xp) - func(xm)) / (2.0 * h)


def fd_divergence(field, x, h=1e-5):
    """Central-difference divergence of a vector field at a point."""
    return sum(fd_step(lambda p: field(p)[d], x, d, h)
               for d in range(len(x)))


def fd_curl(field, x, h=1e-5):
    """Central-difference curl of a 3-D vector field at a point."""
    d = lambda comp, dim: fd_step(lambda p: field(p)[comp], x, dim, h)
    return np.array([
        d(2, 1) - d(1, 2),
        d(0, 2) - d(2, 0),
        d(1, 0) - d(0, 1),
    ])


def fd_operator_rows(F, vector_func, x, h=1e-5):
    """Apply an operator matrix to a vector function by iterated differences.

    Written independently of the package's checker: accumulates one
    monomial at a time with an explicit work list instead of recursion.
    """
    results = []
    for i in range(F.rows):
        total = 0.0
        for j in range(F.cols):
            for mono, coeff in F.entry(i, j).terms.items():
                value = _fd_monomial_iterative(lambda p: vector_func(p)[j],
                                               x, mono, h)
                total = total + float(coeff) * value
        results.append(total)
    return np.array(results)


def _fd_monomial_iterative(func, x, mono, h):
    # expand (point, weight) pairs one derivative at a time
    stack = [(np.array(x, dtype=float), 1.0)]
    for dim, count in enumerate(mono):
        for _ in range(count):
            new = []
            for point, weight in stack:
                up = point.copy()
                down = point.copy()
                up[dim] += h
                down[dim] -= h
                new.append((up, weight / (2.0 * h)))
                new.append((down, -weight / (2.0 * h)))
            stack = new
    return sum(w * func(p) for p, w in stack)


# ---------------------------------------------------------------------------
# arbitrary-precision oracle for mixed partials of the SE kernel


def mp_se_derivative(alpha, beta, x, x2, sv, ls, h_rel=1e-4, dps=40):
    """Nested central differences of the SE kernel in arbitrary precision.

    Differentiates with respect to x per ``alpha`` and x2 per ``beta``
    with step ``h_rel * ls``; high working precision keeps roundoff far
    below the stated step's truncation error even at combined order 4.
    """
    with mp.workdps(dps):
        h = mp.mpf(h_rel) * mp.mpf(ls)
        val = _mp_fd(list(alpha), list(beta),
                     [mp.mpf(v) for v in x], [mp.mpf(v) for v in x2],
                     mp.mpf(sv), mp.mpf(ls), h)
        return float(val)


def _mp_fd(alpha, beta, x, x2, sv, ls, h):
    for d, e in enumerate(alpha):
        if e:
            a = list(alpha)
            a[d] -= 1
            xp = list(x)
            xm = list(x)
            xp[d] += h
            xm[d] -= h
            return (_mp_fd(a, beta, xp, x2, sv, ls, h)
                    - _mp_fd(a, beta, xm, x2, sv, ls, h)) / (2 * h)
    for d, e in enumerate(beta):
        if e:
            b = list(beta)
            b[d] -= 1
            xp = list(x2)
            xm = list(x2)
            xp[d] += h
            xm[d] -= h
            return (_mp_fd(alpha, b, x, xp, sv, ls, h)
                    - _mp_fd(alpha, b, x, xm, sv, ls, h)) / (2 * h)
    r2 = mp.fsum((a - b) ** 2 for a, b in zip(x, x2))
    return sv * mp.exp(-r2 / (2 * ls ** 2))


def mp_diff_se_derivative(alpha, beta, x, x2, sv, ls, dps=40):
    """Mixed partial of the SE kernel by ``mpmath.diff`` at ``dps`` digits.

    mpmath picks its step from the working precision, so this reaches
    orders where the fixed-step nested differences of
    :func:`mp_se_derivative` lose their accuracy.
    """
    dim = len(x)
    with mp.workdps(dps):
        ls = mp.mpf(ls)

        def kernel(*args):
            r2 = mp.fsum((args[d] - args[dim + d]) ** 2 for d in range(dim))
            return sv * mp.exp(-r2 / (2 * ls ** 2))

        point = [mp.mpf(float(v)) for v in (*x, *x2)]
        return float(mp.diff(kernel, point, tuple(alpha) + tuple(beta)))


def multi_indices_up_to(dim, max_order):
    """All (alpha, beta) pairs of length-``dim`` tuples with total order <= max_order."""
    def exponent_tuples(n_slots, total):
        if n_slots == 1:
            return [(total,)]
        out = []
        for e in range(total + 1):
            out.extend((e,) + rest for rest in exponent_tuples(n_slots - 1, total - e))
        return out

    pairs = []
    for order in range(max_order + 1):
        for combined in exponent_tuples(2 * dim, order):
            pairs.append((combined[:dim], combined[dim:]))
    return pairs


def column_covariance_sum(G):
    """Entrywise sum of the covariance operators of G's single columns."""
    parts = [covariance_operator(OperatorMatrix([[G.entry(j, c)] for j in range(G.rows)]))
             for c in range(G.cols)]
    return OperatorMatrix([[sum((P.entry(i, j) for P in parts[1:]), parts[0].entry(i, j))
                            for j in range(G.rows)] for i in range(G.rows)])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20_240_817)
