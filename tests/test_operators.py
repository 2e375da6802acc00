"""Tests for the operator-polynomial algebra and annihilator construction."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldgp.operators import (
    DimensionMismatch,
    NoAnnihilatorFound,
    OperatorMatrix,
    OperatorPoly,
    build_ansatz_system,
    construct_g,
    grlex_key,
    make_curl_operator_3d,
    make_divergence_operator,
    monomials_of_degree,
    nullspace,
    symbolic_product,
)


def dx(p, dim, coeff=1):
    return OperatorPoly.monomial(p, tuple(1 if i == dim else 0 for i in range(p)), coeff)


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately separate from the production code)


def bareiss_rank(rows):
    """Rank by fraction-free Bareiss elimination over exact integers."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = Fraction(1)
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(n_rows):
            if r == rank:
                continue
            for c in range(n_cols):
                if c == col:
                    continue
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) / prev
            m[r][col] = Fraction(0)
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def ansatz(p, degrees):
    """The monomials of the given total degrees over p variables, in graded-lex order."""
    return [m for q in sorted(degrees) for m in monomials_of_degree(p, q)]


def g_columns(G, monomials):
    """Each column of G as its coefficients, component-major over ``monomials``."""
    return [[G.entry(j, c).terms.get(m, 0) for j in range(G.rows) for m in monomials]
            for c in range(G.cols)]


def brute_force_expand(F, gamma, monomials):
    """Expand F (Gamma xi) with plain dicts; returns {(row, monomial): coeff}."""
    out = {}
    for i in range(F.rows):
        for j in range(F.cols):
            for mono_f, c_f in F.entry(i, j).terms.items():
                for k, mono_a in enumerate(monomials):
                    c = c_f * gamma[j][k]
                    if c == 0:
                        continue
                    key = (i, tuple(a + b for a, b in zip(mono_f, mono_a)))
                    out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# monomials and polynomials


def test_monomials_of_degree_graded_lex_order():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _monomials_recursive(p, q):
    # the former recursive construction, one call per variable
    if p == 1:
        return [(q,)]
    return [(e,) + rest for e in range(q, -1, -1) for rest in _monomials_recursive(p - 1, q - e)]


def test_monomials_of_degree_matches_recursive_order():
    for p in range(1, 5):
        for q in range(5):
            assert monomials_of_degree(p, q) == _monomials_recursive(p, q)


def test_monomials_of_degree_many_variables():
    # one variable per recursion level used to overflow the stack here
    assert monomials_of_degree(3000, 0) == [(0,) * 3000]
    assert len(monomials_of_degree(3000, 1)) == 3000


def test_monomials_of_degree_complete_and_unique():
    monos = monomials_of_degree(3, 3)
    assert len(monos) == len(set(monos)) == 10  # C(3+3-1, 3)
    assert all(sum(m) == 3 for m in monos)
    assert monos == sorted(monos, key=grlex_key)


def test_poly_zero_coefficients_are_dropped():
    poly = OperatorPoly(2, {(1, 0): 1, (0, 1): 0})
    assert poly.terms == {(1, 0): 1}
    assert (poly + -poly).is_zero()


def test_poly_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        OperatorPoly(2, {(1, 0): float("nan")})
    with pytest.raises(ValueError):
        OperatorPoly(2, {(1, 0): float("inf")})
    with pytest.raises(TypeError):
        OperatorPoly(2, {(1, 0): True})


def test_float_coefficients_are_the_decimals_they_spell():
    poly = OperatorPoly(2, {(1, 0): 0.3, (0, 1): np.float64(2.0), (0, 0): np.int64(-4)})
    assert poly.terms == {(1, 0): Fraction(3, 10), (0, 1): 2, (0, 0): -4}
    assert all(type(c) in (int, Fraction) for c in poly.terms.values())
    # float() of the coefficient returns the original bits
    for value in (0.1, 1 / 3, 2.0 ** -1074, 1.7976931348623157e308, 0.8 ** 2):
        assert float(OperatorPoly(2, {(0, 1): value}).terms[(0, 1)]) == value


def test_poly_degree_queries():
    assert OperatorPoly.zero(2).max_degree() == 0
    mixed = dx(2, 0) + OperatorPoly.constant(2, 3)
    assert mixed.max_degree() == 1


def test_poly_multiplication_commutes_symbols():
    a = dx(2, 0) * dx(2, 1)
    b = dx(2, 1) * dx(2, 0)
    assert a == b == OperatorPoly(2, {(1, 1): 1})


coeffs = st.integers(min_value=-4, max_value=4)
small_polys = st.builds(
    lambda terms: OperatorPoly(2, dict(terms)),
    st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs),
             max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_render():
    G = make_divergence_operator(2)
    assert G.entry(0, 0).render() == "d/dx1"
    poly = OperatorPoly(2, {(0, 1): -1})
    assert poly.render() == "-d/dx2"
    assert OperatorPoly(2, {(2, 1): Fraction(3, 2)}).render() == "3/2*d3/dx1^2dx2"


# ---------------------------------------------------------------------------
# stock operators


def test_divergence_operator_2d():
    F = make_divergence_operator(2)
    assert (F.rows, F.cols, F.vars) == (1, 2, 2)
    assert F.entry(0, 0) == dx(2, 0)
    assert F.entry(0, 1) == dx(2, 1)


def test_divergence_operator_3d():
    F = make_divergence_operator(3)
    assert (F.rows, F.cols) == (1, 3)
    assert [F.entry(0, j) for j in range(3)] == [dx(3, 0), dx(3, 1), dx(3, 2)]


def test_divergence_operator_1d_and_invalid():
    F = make_divergence_operator(1)
    assert (F.rows, F.cols, F.vars) == (1, 1, 1)
    assert F.entry(0, 0) == OperatorPoly.monomial(1, (1,))
    with pytest.raises(ValueError):
        make_divergence_operator(0)


def test_curl_operator_matrix():
    F = make_curl_operator_3d()
    assert F.entry(0, 0).is_zero()
    assert F.entry(0, 1) == dx(3, 2)
    assert F.entry(0, 2) == dx(3, 1, -1)
    assert F.entry(1, 0) == dx(3, 2, -1)
    assert F.entry(1, 2) == dx(3, 0)
    assert F.entry(2, 0) == dx(3, 1)
    assert F.entry(2, 1) == dx(3, 0, -1)


def test_curl_annihilates_gradient_column():
    F = make_curl_operator_3d()
    gradient = OperatorMatrix([[dx(3, 0)], [dx(3, 1)], [dx(3, 2)]])
    assert symbolic_product(F, gradient).is_zero()


# ---------------------------------------------------------------------------
# ansatz system


def test_ansatz_system_golden_2d_divergence():
    # the documented 3x4 coefficient matrix under (g11, g12, g21, g22) columns
    F = make_divergence_operator(2)
    A, row_index = build_ansatz_system(F, monomials_of_degree(2, 1))
    assert A == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert [m for _, m in row_index] == [(2, 0), (1, 1), (0, 2)]


def test_ansatz_system_zero_operator():
    F = OperatorMatrix([[OperatorPoly.zero(2)]])
    monomials = monomials_of_degree(2, 1)
    A, _ = build_ansatz_system(F, monomials)
    assert all(all(x == 0 for x in row) for row in A)
    ncols = F.cols * len(monomials)
    vectors = nullspace(A, ncols)
    assert len(vectors) == ncols == 2  # every Gamma solves it


def test_ansatz_system_curl_conditions():
    # the constraint set must pin Gamma to multiples of the identity
    F = make_curl_operator_3d()
    A, _ = build_ansatz_system(F, monomials_of_degree(3, 1))
    vectors = nullspace(A)
    assert len(vectors) == 1
    identity_vec = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    lead = vectors[0][0]
    assert lead != 0
    assert [x / lead for x in vectors[0]] == identity_vec
    assert bareiss_rank(A) == 8


def test_ansatz_system_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_ansatz_system(make_divergence_operator(2), monomials_of_degree(3, 1))


def test_degree_bookkeeping():
    # every emitted row monomial is an achievable F-term + ansatz-term sum
    for F in (make_divergence_operator(2), make_curl_operator_3d()):
        for degrees in ({1}, {0, 1}):
            monomials = ansatz(F.vars, degrees)
            _, row_index = build_ansatz_system(F, monomials)
            for i, mono in row_index:
                achievable = {
                    tuple(a + b for a, b in zip(mono_f, mono_a))
                    for j in range(F.cols)
                    for mono_f in F.entry(i, j).terms
                    for mono_a in monomials
                }
                assert mono in achievable
                f_degs = {sum(m) for j in range(F.cols)
                          for m in F.entry(i, j).terms}
                assert sum(mono) in {fd + ad for fd in f_degs for ad in degrees}


def test_system_faithfulness_random_gammas(rng):
    # A @ vec(Gamma) reproduces the brute-force expansion coefficients exactly
    cases = [make_divergence_operator(2), make_divergence_operator(3),
             make_curl_operator_3d()]
    for F in cases:
        monomials = monomials_of_degree(F.vars, 1)
        A, row_index = build_ansatz_system(F, monomials)
        n, m_g = F.cols, len(monomials)
        for _ in range(50):
            gamma = [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                      for _ in range(m_g)] for _ in range(n)]
            vec = [gamma[j][k] for j in range(n) for k in range(m_g)]
            expanded = brute_force_expand(F, gamma, monomials)
            for row, key in zip(A, row_index):
                lhs = sum(c * v for c, v in zip(row, vec))
                assert lhs == expanded.get(key, 0)
            # zero expansion <=> A vec = 0
            residuals = [sum(c * v for c, v in zip(row, vec)) for row in A]
            assert (not expanded) == all(r == 0 for r in residuals)


def test_faithfulness_on_nullspace_vectors():
    F = make_divergence_operator(3)
    monomials = monomials_of_degree(3, 1)
    m_g = len(monomials)
    for vec in nullspace(build_ansatz_system(F, monomials)[0]):
        gamma = [vec[j * m_g:(j + 1) * m_g] for j in range(F.cols)]
        assert brute_force_expand(F, gamma, monomials) == {}


# ---------------------------------------------------------------------------
# nullspace


def test_nullspace_golden_matrix():
    A = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    vectors = nullspace(A)
    assert len(vectors) == 1
    v = vectors[0]
    scale = v[2]
    assert scale != 0
    assert [x / scale for x in v] == [0, -1, 1, 0]


def test_nullspace_zero_matrix():
    vectors = nullspace([[0] * 4 for _ in range(3)])
    assert [[int(x) for x in v] for v in vectors] == np.eye(4, dtype=int).tolist()


def test_nullspace_random_integer_matrices(rng):
    # rank-5 6x8 integer matrices: 3 basis vectors, A v = 0 exactly,
    # and exact independence via the Bareiss rank oracle
    for _ in range(10):
        base = rng.integers(-5, 6, size=(5, 8))
        extra = rng.integers(-3, 4, size=5) @ base
        A = np.vstack([base, extra])
        if bareiss_rank(A.tolist()) != 5:
            continue
        vectors = nullspace(A.tolist())
        assert len(vectors) == 3
        for v in vectors:
            assert all(sum(int(a) * x for a, x in zip(row, v)) == 0 for row in A)
        assert bareiss_rank([list(map(Fraction, v)) for v in vectors]) == 3


def test_nullspace_floating_mode(rng):
    # a float matrix is eliminated exactly: A v = 0 holds in Fraction arithmetic
    A = rng.standard_normal((5, 8))
    vectors = nullspace(A)
    assert len(vectors) == 3
    exact_rows = [[Fraction(repr(float(a))) for a in row] for row in A]
    for v in vectors:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in exact_rows)
    assert bareiss_rank(vectors) == 3


def test_nullspace_reads_floats_exactly():
    # rank 1 in decimal (2.1 = 3 * 0.7, 0.3 = 3 * 0.1), though 3 * 0.1 != 0.3 in binary
    assert nullspace([[0.1, 0.7], [0.3, 2.1]]) == [[Fraction(-7), Fraction(1)]]
    assert nullspace([[0.5, 1.0]]) == [[Fraction(-2), Fraction(1)]]
    with pytest.raises(TypeError):
        nullspace([[True, 1]])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            nullspace([[bad, 1.0]])


def test_nullspace_empty_rows_needs_ncols():
    with pytest.raises(ValueError):
        nullspace([])
    assert len(nullspace([], ncols=3)) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_nullspace_property_exact(rows):
    vectors = nullspace(rows)
    for v in vectors:
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0
    if vectors:
        assert bareiss_rank(vectors) == len(vectors)
    assert len(vectors) == 4 - bareiss_rank(rows)


# ---------------------------------------------------------------------------
# construct_g


def test_construct_g_2d_divergence():
    G, degrees = construct_g(make_divergence_operator(2))
    # canonical form; proportional to the hand-derived [-d/dx2, d/dx1]
    assert (G.rows, G.cols) == (2, 1)
    assert G.entry(0, 0) == dx(2, 1)
    assert G.entry(1, 0) == dx(2, 0, -1)
    assert degrees == {1}


def test_construct_g_curl():
    G, _ = construct_g(make_curl_operator_3d())
    assert (G.rows, G.cols) == (3, 1)
    assert [G.entry(j, 0) for j in range(3)] == [dx(3, 0), dx(3, 1), dx(3, 2)]


def test_construct_g_3d_divergence_span():
    G, degrees = construct_g(make_divergence_operator(3))
    assert G.cols == 3
    vecs = g_columns(G, ansatz(3, degrees))
    expected = [
        [0, 0, 0, 0, 0, 1, 0, -1, 0],   # [0, d3, -d2]
        [0, 0, -1, 0, 0, 0, 1, 0, 0],   # [-d3, 0, d1]
        [0, 1, 0, -1, 0, 0, 0, 0, 0],   # [d2, -d1, 0]
    ]
    assert bareiss_rank(vecs) == 3
    assert bareiss_rank(vecs + expected) == 3  # same span


@pytest.mark.parametrize("make_f", [
    lambda: make_divergence_operator(2),
    lambda: make_divergence_operator(3),
    make_curl_operator_3d,
])
def test_construct_g_annihilation_exact(make_f):
    F = make_f()
    G, _ = construct_g(F)
    product = symbolic_product(F, G)
    assert all(product.entry(i, k).is_zero()
               for i in range(product.rows) for k in range(product.cols))


def test_construct_g_constant_operator():
    # pure linear transform: f1 - f2 = 0 forces equal components
    F = OperatorMatrix([[OperatorPoly.constant(2, 1), OperatorPoly.constant(2, -1)]])
    G, degrees = construct_g(F)
    assert degrees == {0}
    assert G.entry(0, 0) == OperatorPoly.constant(2, 1)
    assert G.entry(1, 0) == OperatorPoly.constant(2, 1)


def test_construct_g_no_annihilator():
    with pytest.raises(NoAnnihilatorFound) as err:
        construct_g(make_divergence_operator(1), max_degree=3)
    assert err.value.max_degree == 3


def test_construct_g_max_degree_validation():
    F = make_divergence_operator(2)
    squared = symbolic_product(OperatorMatrix([[dx(2, 0)], [dx(2, 1)]]), F)
    assert squared.max_degree() == 2
    with pytest.raises(ValueError):
        construct_g(squared, max_degree=1)


def test_construct_g_deterministic():
    a, _ = construct_g(make_divergence_operator(3))
    b, _ = construct_g(make_divergence_operator(3))
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_construct_g_floating_coefficients():
    entries = [[OperatorPoly.monomial(2, (1, 0), 1.5),
                OperatorPoly.monomial(2, (0, 1), 0.5)]]
    G, _ = construct_g(OperatorMatrix(entries))
    assert symbolic_product(OperatorMatrix(entries), G).is_zero()
    # F = [0.3 d1, 1.7 d2, -2.1 d3]: a sparse exact G that survives JSON
    F = OperatorMatrix([[dx(3, 0, 0.3), dx(3, 1, 1.7), dx(3, 2, -2.1)]])
    G, _ = construct_g(F)
    assert symbolic_product(F, G).is_zero()
    coeffs = {c for row in G.entries for poly in row for c in poly.terms.values()}
    assert {Fraction(-3, 17), Fraction(1, 7), Fraction(17, 21)} <= coeffs
    assert OperatorMatrix.from_json_dict(json.loads(json.dumps(G.to_json_dict()))) == G


@st.composite
def operators_with_an_annihilator(draw):
    """Integer F with more columns than rows, entries of degree <= 2 for one
    row and <= 1 for two: F's cofactors (or, when they vanish, those of one
    nonzero row) give an annihilator of degree <= 2, inside the search."""
    p = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(rows + 1, 3))
    monos = ansatz(p, range(4 - rows))[::-1]  # top degree first: fewer constant entries
    terms = st.dictionaries(st.sampled_from(monos), st.integers(-3, 3), max_size=2)
    return OperatorMatrix([[OperatorPoly(p, draw(terms)) for _ in range(cols)]
                           for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(operators_with_an_annihilator())
def test_construct_g_normalization_and_degree_set(F):
    G, degrees = construct_g(F)
    monomials = ansatz(F.vars, degrees)
    # every column lives on the ansatz; its first nonzero coefficient,
    # component-major with monomials in graded-lex order, is one
    assert all(set(poly.terms) <= set(monomials) for row in G.entries for poly in row)
    for column in g_columns(G, monomials):
        assert next(x for x in column if x != 0) == 1
    assert symbolic_product(F, G).is_zero()
    # degrees is the first set of the schedule with a nontrivial nullspace
    q_f = F.max_degree()
    schedule = ([{q} for q in range(q_f, 4)]
                + [set(range(q + 1)) for q in range(max(q_f, 1), 4)])
    assert degrees in schedule
    for earlier in schedule[:schedule.index(degrees)]:
        monos = ansatz(F.vars, earlier)
        assert nullspace(build_ansatz_system(F, monos)[0], F.cols * len(monos)) == []
    ncols = F.cols * len(monomials)
    assert len(nullspace(build_ansatz_system(F, monomials)[0], ncols)) == G.cols


# ---------------------------------------------------------------------------
# symbolic products and JSON round trips


def test_symbolic_product_identity():
    eye = OperatorMatrix([[OperatorPoly.constant(2, 1), OperatorPoly.zero(2)],
                          [OperatorPoly.zero(2), OperatorPoly.constant(2, 1)]])
    G, _ = construct_g(make_divergence_operator(2))
    assert symbolic_product(eye, G) == G


def test_symbolic_product_dimension_checks():
    with pytest.raises(DimensionMismatch):
        symbolic_product(make_divergence_operator(2), make_divergence_operator(2))
    with pytest.raises(DimensionMismatch):
        symbolic_product(make_divergence_operator(2), make_curl_operator_3d())


def test_json_roundtrip():
    for F in (make_divergence_operator(3), make_curl_operator_3d(),
              construct_g(make_divergence_operator(2))[0]):
        assert OperatorMatrix.from_json_dict(F.to_json_dict()) == F


def test_json_rational_coefficients():
    doc = {"vars": 1, "rows": 1, "cols": 1,
           "entries": [{"row": 0, "col": 0,
                        "terms": [{"coeff": "3/7", "exponents": [2]}]}]}
    F = OperatorMatrix.from_json_dict(doc)
    assert F.entry(0, 0).terms == {(2,): Fraction(3, 7)}
    assert F.to_json_dict()["entries"][0]["terms"][0]["coeff"] == "3/7"


def test_json_float_coefficients_read_exactly():
    doc = {"vars": 1, "rows": 1, "cols": 1,
           "entries": [{"row": 0, "col": 0,
                        "terms": [{"coeff": 0.3, "exponents": [1]},
                                  {"coeff": 2.0, "exponents": [0]}]}]}
    F = OperatorMatrix.from_json_dict(doc)
    assert F.entry(0, 0).terms == {(1,): Fraction(3, 10), (0,): 2}
    terms = F.to_json_dict()["entries"][0]["terms"]
    assert [t["coeff"] for t in terms] == [2, "3/10"]


def test_json_repeated_entries_sum():
    # two entries for cell (0, 1), plus one for (0, 0); (0, 2) stays zero
    doc = {"vars": 2, "rows": 1, "cols": 3, "entries": [
        {"row": 0, "col": 1, "terms": [{"coeff": 1, "exponents": [1, 0]},
                                       {"coeff": "1/2", "exponents": [0, 1]}]},
        {"row": 0, "col": 0, "terms": [{"coeff": 2, "exponents": [0, 0]}]},
        {"row": 0, "col": 1, "terms": [{"coeff": 3, "exponents": [1, 0]},
                                       {"coeff": "-1/2", "exponents": [0, 1]}]},
    ]}
    F = OperatorMatrix.from_json_dict(doc)
    assert F == OperatorMatrix([[OperatorPoly.constant(2, 2), dx(2, 0, 4),
                                 OperatorPoly.zero(2)]])


def test_json_validation_errors():
    bad_docs = [
        {"rows": 1, "cols": 1},                                   # missing vars
        {"vars": 0, "rows": 1, "cols": 1, "entries": []},          # vars < 1
        {"vars": 2, "rows": 1, "cols": 1,
         "entries": [{"row": 3, "col": 0, "terms": []}]},          # out of range
        {"vars": 2, "rows": 1, "cols": 1,
         "entries": [{"row": 0, "col": 0,
                      "terms": [{"coeff": 1, "exponents": [1]}]}]},  # bad arity
    ]
    for doc in bad_docs:
        with pytest.raises(ValueError):
            OperatorMatrix.from_json_dict(doc)
