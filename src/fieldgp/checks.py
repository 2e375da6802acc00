"""Numerical verification that a kernel obeys an operator constraint.

Applies an operator matrix to the first argument of a matrix kernel by
nested central finite differences and reports the largest violation
relative to the kernel's own scale.  Useful as a sanity gate for
hand-written G matrices and as the engine behind ``fieldgp check-kernel``.
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


#: Finite-difference step and the half-width of the sampling box, in length scales.
FD_STEP = 1e-4
SAMPLE_BOX = 2.0


def check_kernel_constraint(F, kernel, n_samples=100, seed=0):
    """Check F applied to the first argument of a kernel at random pairs.

    For each sampled pair (x, x2), every column of K(., x2) is pushed
    through F with finite differences; for a constraint-respecting
    kernel the result is analytically zero.  Returns the largest violation
    relative to the largest kernel entry seen, or nan when a value overflowed.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, not {n_samples}")
    if F.cols != kernel.shape[0]:
        raise ValueError("operator columns must match the kernel output dimension")
    rng = np.random.default_rng(seed)
    ell = kernel.theta.length_scale
    h = FD_STEP * ell
    max_abs = scale = 0.0
    for _ in range(n_samples):
        x = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=F.vars) * ell
        x2 = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=F.vars) * ell
        # np.max, unlike max, keeps the nan of a kernel that overflowed
        scale = np.max([scale, np.abs(kernel.eval(x, x2)).max(),
                        np.abs(kernel.eval(x2, x2)).max()])
        applied = fd_apply_operator(F, lambda p: kernel.eval(p, x2), x, h)
        max_abs = np.max([max_abs, np.abs(applied).max()])
    return float(max_abs / max(scale, 1e-300))
