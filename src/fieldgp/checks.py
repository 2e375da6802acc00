"""Finite-difference application of an operator matrix to a function.

A numerical oracle, independent of the symbolic operator algebra: the
tests check kernels and posterior means against it.  It stays in the
package because the benchmark's output check (``perfbench/verify.py``)
imports ``fd_apply_operator`` to measure the constraint residual of each
posterior mean.  ``fieldgp check-kernel`` does not use it: it decides
F G = 0 exactly.
"""

import numpy as np


def fd_apply_monomial(func, x, exponents, h):
    """Nested central differences for a mixed-partial monomial.

    ``func`` maps a point to a scalar or array; each unit of each
    exponent becomes one central-difference level of step ``h``.
    """
    exponents = list(exponents)
    d = next((i for i, e in enumerate(exponents) if e), None)
    if d is None:
        return func(x)
    exponents[d] -= 1
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[d] += h
    xm[d] -= h
    return (fd_apply_monomial(func, xp, exponents, h)
            - fd_apply_monomial(func, xm, exponents, h)) / (2.0 * h)


def fd_apply_operator(F, vector_func, x, h):
    """Apply each row of an operator matrix to a vector-valued function.

    ``vector_func`` maps a point to an array whose leading axis has
    F.cols components; returns an array with F.rows leading components.
    """
    cache = {}

    def mono_value(mono):
        if mono not in cache:
            cache[mono] = fd_apply_monomial(vector_func, x, mono, h)
        return cache[mono]

    rows = []
    for i in range(F.rows):
        acc = None
        for j in range(F.cols):
            for mono, coeff in F.entry(i, j).terms.items():
                term = float(coeff) * mono_value(mono)[j]
                acc = term if acc is None else acc + term
        if acc is None:
            acc = np.zeros_like(np.asarray(vector_func(x))[0])
        rows.append(acc)
    return np.array(rows)
