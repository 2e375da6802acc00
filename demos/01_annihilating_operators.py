#!/usr/bin/env python3
"""Constructing annihilating operators for linear constraints.

A constraint "F applied to the field is zero" restricts a vector field
everywhere.  Instead of constraining samples after the fact, we look for
an operator matrix G with F G = 0 and model the field as f = G[g] for an
unconstrained potential g: then F[f] = F[G[g]] = 0 identically.

This script builds G for the classic cases and for a custom algebraic
constraint, and shows the intermediate linear system the search solves.
"""

import numpy as np

from fieldgp import (
    NoAnnihilatorFound,
    OperatorMatrix,
    OperatorPoly,
    build_ansatz_system,
    construct_g,
    make_curl_operator_3d,
    make_divergence_operator,
    monomials_of_degree,
    symbolic_product,
)

# -- planar divergence-free fields ------------------------------------------
# F = [d/dx1, d/dx2] acting on a 2-component field.

F = make_divergence_operator(2)
print("constraint operator F:")
print(F.render())

# The search parameterizes a candidate column gamma = Gamma xi over the
# first-order derivative monomials and collects coefficients of
# F (Gamma xi) into a homogeneous system A vec(Gamma) = 0.
A, _ = build_ansatz_system(F, monomials_of_degree(2, 1))
print("\ncoefficient system A (rows: product monomials, cols: vec(Gamma)):")
print(np.array(A, dtype=int))

G, _ = construct_g(F)
print("\nannihilator G (one column per nullspace vector):")
print(G.render())
print("F G = 0 holds symbolically:", symbolic_product(F, G).is_zero())

# -- curl-free fields in 3-D --------------------------------------------------
# The 3x3 curl operator annihilates exactly the gradient column, so a
# curl-free field is the gradient of a scalar potential.

F_curl = make_curl_operator_3d()
G_curl, _ = construct_g(F_curl)
print("\ncurl operator:")
print(F_curl.render())
print("annihilator (the gradient):")
print(G_curl.render())

# -- divergence-free fields in 3-D --------------------------------------------
# Here the nullspace is three-dimensional: G has three columns and the
# potential g has three components (a vector potential).

F3 = make_divergence_operator(3)
G3, _ = construct_g(F3)
print(f"\n3-D divergence annihilator has {G3.cols} columns:")
print(G3.render())

# -- a purely algebraic constraint --------------------------------------------
# Degree-0 entries express linear relations between outputs: f1 = f2.

F_eq = OperatorMatrix([[OperatorPoly.constant(2, 1), OperatorPoly.constant(2, -1)]])
G_eq, _ = construct_g(F_eq)
print("\nconstraint f1 - f2 = 0 gives the shared-potential annihilator:")
print(G_eq.render())

# -- a constraint with no annihilator of this form ----------------------------
# d/dx applied to a scalar: only constants satisfy it, and no nonzero
# polynomial-in-derivatives operator G has (d/dx) G = 0.

try:
    construct_g(make_divergence_operator(1), max_degree=3)
except NoAnnihilatorFound as exc:
    print(f"\n1-D derivative constraint: {exc}")
