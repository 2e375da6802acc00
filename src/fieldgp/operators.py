"""Polynomial algebra for matrices of commuting differential operators.

A scalar operator is a polynomial in the partial-derivative symbols
d/dx1, ..., d/dxp, which commute (mixed partials of smooth functions are
order-independent).  Monomials are represented as tuples of non-negative
integer exponents of length p; an :class:`OperatorPoly` maps monomials to
exact rational coefficients (``int`` or ``Fraction``; a float is read as
the decimal its repr spells, see :func:`exact`).  An :class:`OperatorMatrix`
is a rectangular grid of such polynomials and models a linear operator
acting on vector-valued functions componentwise.

Given a constraint matrix F, :func:`construct_g` finds an operator matrix
G with ``F G = 0`` so that any field of the form ``f = G[g]`` satisfies
the constraint identically.  The search parameterizes candidate columns
of G over a basis of derivative monomials, collects the coefficients of
the expanded product into a homogeneous linear system, and reads G off a
basis of its nullspace, all in exact rational arithmetic, so ``F G = 0``
holds exactly.
"""

import json
import math
import numbers
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

MIXED = "mixed"


class DimensionMismatch(ValueError):
    """Operator shapes or variable counts are incompatible."""


class NoAnnihilatorFound(Exception):
    """No annihilating operator exists within the searched ansatz degrees.

    Raising this does not prove nonexistence; it signals that every
    ansatz up to ``max_degree`` produced an empty nullspace and the
    caller may retry with a larger degree budget.
    """

    def __init__(self, max_degree):
        self.max_degree = max_degree
        super().__init__(
            f"no annihilating operator found with ansatz degree <= {max_degree}"
        )


# ---------------------------------------------------------------------------
# monomials


def grlex_key(m):
    """Sort key for graded lexicographic order (degree, then x1-major)."""
    return (sum(m), tuple(-e for e in m))


def monomials_of_degree(p, q):
    """All exponent tuples of length ``p`` summing to ``q``, in graded-lex order."""
    if p < 1:
        raise ValueError("need at least one variable")
    out = []
    for combo in combinations_with_replacement(range(p), q):
        exponents = [0] * p
        for d in combo:
            exponents[d] += 1
        out.append(tuple(exponents))
    return out


def render_monomial(m):
    """Human-readable form of a derivative monomial, e.g. ``d2/dx1dx2``."""
    deg = sum(m)
    if deg == 0:
        return "1"
    num = "d" if deg == 1 else f"d{deg}"
    den = ""
    for i, e in enumerate(m):
        if e == 0:
            continue
        den += f"dx{i + 1}" + (f"^{e}" if e > 1 else "")
    return f"{num}/{den}"


def exact(c):
    """``c`` as an ``int`` or a ``Fraction``: the one coefficient arithmetic.

    A float becomes ``Fraction(repr(c))``, the decimal its shortest repr
    spells, so 0.3 is 3/10 and ``float`` of the result returns the original
    bits.  Booleans, non-finite and non-real values are rejected.
    """
    if isinstance(c, bool) or not isinstance(c, numbers.Real):
        raise TypeError(f"coefficient must be a real number, not {c!r}")
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, numbers.Integral):
        return int(c)
    if not math.isfinite(c):
        raise ValueError("coefficients must be finite")
    return Fraction(repr(float(c)))


# ---------------------------------------------------------------------------
# scalar operator polynomials


class OperatorPoly:
    """Polynomial in ``p`` commuting derivative symbols.

    ``terms`` maps exponent tuples to nonzero int or Fraction coefficients
    (other numbers go through :func:`exact`).  The zero polynomial has no
    terms.  Instances are treated as immutable; arithmetic returns new
    objects.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms=None):
        if p < 1:
            raise ValueError("variable count must be >= 1")
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != p or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for p={p}")
            coeff = exact(coeff)
            if coeff == 0:
                continue
            clean[mono] = clean.get(mono, 0) + coeff
            if clean[mono] == 0:
                del clean[mono]
        self.p = p
        self.terms = clean

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def monomial(cls, p, exponents, coeff=1):
        return cls(p, {tuple(exponents): coeff})

    @classmethod
    def constant(cls, p, coeff):
        return cls(p, {(0,) * p: coeff})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Common total degree of all terms, ``MIXED`` if they differ, None if zero."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else MIXED

    def max_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __add__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        if other.p != self.p:
            raise DimensionMismatch("variable counts differ")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return OperatorPoly(self.p, terms)

    def __neg__(self):
        return OperatorPoly(self.p, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, OperatorPoly):
            if other.p != self.p:
                raise DimensionMismatch("variable counts differ")
            prod = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    prod[mono] = prod.get(mono, 0) + c1 * c2
            return OperatorPoly(self.p, prod)
        other = exact(other)
        return OperatorPoly(self.p, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, OperatorPoly)
            and self.p == other.p
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"OperatorPoly({self.render()!r})"

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            body = render_monomial(mono)
            if body == "1":
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


# ---------------------------------------------------------------------------
# operator matrices


class OperatorMatrix:
    """Rectangular matrix of :class:`OperatorPoly` entries over shared variables."""

    __slots__ = ("rows", "cols", "vars", "entries")

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("operator matrix must be nonempty")
        rows = len(entries)
        cols = len(entries[0])
        p = entries[0][0].p
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged entry grid")
            for poly in row:
                if poly.p != p:
                    raise DimensionMismatch("entries disagree on variable count")
        self.rows = rows
        self.cols = cols
        self.vars = p
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def zeros(cls, rows, cols, p):
        return cls([[OperatorPoly.zero(p)] * cols for _ in range(rows)])

    @classmethod
    def from_entry_map(cls, rows, cols, p, entry_map):
        grid = [[OperatorPoly.zero(p)] * cols for _ in range(rows)]
        for (i, j), poly in entry_map.items():
            grid[i][j] = poly
        return cls(grid)

    def entry(self, i, j):
        return self.entries[i][j]

    def is_zero(self):
        return all(poly.is_zero() for row in self.entries for poly in row)

    def max_degree(self):
        return max(poly.max_degree() for row in self.entries for poly in row)

    def __eq__(self, other):
        return (
            isinstance(other, OperatorMatrix)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"OperatorMatrix({self.rows}x{self.cols}, vars={self.vars})"

    def render(self):
        cells = [[poly.render() for poly in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "   ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    # -- JSON wire format ---------------------------------------------------

    def to_json_dict(self):
        entries = []
        for i, row in enumerate(self.entries):
            for j, poly in enumerate(row):
                if poly.is_zero():
                    continue
                entries.append({
                    "row": i,
                    "col": j,
                    "terms": [
                        {"coeff": _coeff_to_json(c), "exponents": list(m)}
                        for m, c in poly.sorted_terms()
                    ],
                })
        return {"vars": self.vars, "rows": self.rows, "cols": self.cols,
                "entries": entries}

    @classmethod
    def from_json_dict(cls, doc):
        try:
            p, rows, cols = (_json_int(doc[key], key) for key in ("vars", "rows", "cols"))
            raw_entries = doc.get("entries", [])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed operator spec: {exc}") from exc
        if p < 1 or rows < 1 or cols < 1:
            raise ValueError("vars, rows and cols must all be >= 1")
        entry_map = {}
        try:
            for ent in raw_entries:
                i, j = _json_int(ent["row"], "row"), _json_int(ent["col"], "col")
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry index ({i},{j}) out of range")
                terms = {}
                for term in ent["terms"]:
                    exps = tuple(_json_int(e, "exponents") for e in term["exponents"])
                    if len(exps) != p or any(e < 0 for e in exps):
                        raise ValueError(f"bad exponents {exps} (vars={p})")
                    coeff = _coeff_from_json(term["coeff"])
                    terms[exps] = terms.get(exps, 0) + coeff
                poly = OperatorPoly(p, terms)
                if (i, j) in entry_map:
                    poly = entry_map[i, j] + poly
                entry_map[i, j] = poly
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed operator entries: {exc!r}") from None
        return cls.from_entry_map(rows, cols, p, entry_map)

    def dump_json(self, path):
        doc = self.to_json_dict()
        doc["rendered"] = self.render().splitlines()
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _json_int(value, key):
    """``value`` if it is a JSON integer (not a boolean), else a ValueError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"operator spec {key!r}: {value!r} is not an integer")
    return value


def _coeff_to_json(c):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeff_from_json(raw):
    return Fraction(raw) if isinstance(raw, str) else exact(raw)


# ---------------------------------------------------------------------------
# stock constraint operators


def make_divergence_operator(D):
    """The 1xD divergence row [d/dx1, ..., d/dxD]."""
    if D < 1:
        raise ValueError("D must be >= 1")
    unit = lambda j: tuple(1 if i == j else 0 for i in range(D))
    return OperatorMatrix([[OperatorPoly.monomial(D, unit(j)) for j in range(D)]])


def make_curl_operator_3d():
    """The 3x3 skew matrix whose rows compute the curl of a 3-vector field."""
    d = lambda k: OperatorPoly.monomial(3, tuple(1 if i == k else 0 for i in range(3)))
    zero = OperatorPoly.zero(3)
    return OperatorMatrix([
        [zero, d(2), -d(1)],
        [-d(2), zero, d(0)],
        [d(1), -d(0), zero],
    ])


def symbolic_product(F, G):
    """Matrix product of operator matrices with commuting-symbol multiplication.

    Coefficients are exact, so the order of accumulation cannot change a value.
    """
    if F.vars != G.vars:
        raise DimensionMismatch("variable counts differ")
    if F.cols != G.rows:
        raise DimensionMismatch(
            f"cannot multiply {F.rows}x{F.cols} by {G.rows}x{G.cols}"
        )
    zero = OperatorPoly.zero(F.vars)
    return OperatorMatrix([[sum((F.entry(i, j) * G.entry(j, k) for j in range(F.cols)), zero)
                            for k in range(G.cols)] for i in range(F.rows)])


# ---------------------------------------------------------------------------
# ansatz machinery


class AnsatzBasis:
    """Ordered basis of derivative monomials over ``p`` variables.

    Contains every monomial whose total degree lies in ``degrees``,
    listed in graded-lex order, which fixes the column layout of the
    coefficient system.
    """

    __slots__ = ("p", "degrees", "monomials")

    def __init__(self, p, degrees):
        degrees = frozenset(int(q) for q in degrees)
        if not degrees or any(q < 0 for q in degrees):
            raise ValueError("degrees must be a nonempty set of integers >= 0")
        monos = [m for q in sorted(degrees) for m in monomials_of_degree(p, q)]
        self.p = p
        self.degrees = degrees
        self.monomials = tuple(monos)

    @property
    def size(self):
        return len(self.monomials)

    def __repr__(self):
        return f"AnsatzBasis(p={self.p}, degrees={sorted(self.degrees)}, size={self.size})"


class AnsatzSystem:
    """Homogeneous linear system encoding ``F (Gamma xi) = 0``.

    Rows are indexed by (constraint row, product monomial); columns by
    the entries of Gamma flattened row-major, i.e. (output component j,
    ansatz monomial k).  ``A @ vec(Gamma) = 0`` holds exactly when the
    operator identity does.
    """

    __slots__ = ("matrix", "row_index", "col_index", "ansatz", "n_components")

    def __init__(self, matrix, row_index, col_index, ansatz, n_components):
        self.matrix = matrix
        self.row_index = row_index
        self.col_index = col_index
        self.ansatz = ansatz
        self.n_components = n_components

    @property
    def ncols(self):
        return len(self.col_index)

    def as_array(self):
        if not self.matrix:
            return np.zeros((0, self.ncols))
        return np.array([[float(x) for x in row] for row in self.matrix])


def build_ansatz_system(F, ansatz):
    """Expand ``F (Gamma xi)`` and collect coefficients into a linear system.

    For each constraint row i of F, the candidate column ``gamma = Gamma xi``
    is applied and the product expanded over the canonical monomial basis;
    commuting symbols make mixed products symmetrize automatically.  Each
    product monomial that can receive a nonzero coefficient contributes one
    equation.
    """
    if not isinstance(F, OperatorMatrix):
        raise TypeError("F must be an OperatorMatrix")
    if ansatz.p != F.vars:
        raise DimensionMismatch(
            f"ansatz over {ansatz.p} variables, operator over {F.vars}"
        )
    n = F.cols
    m_g = ansatz.size
    col_index = [(j, k) for j in range(n) for k in range(m_g)]
    matrix = []
    row_index = []
    for i in range(F.rows):
        # coefficient of each achievable product monomial, per Gamma entry
        per_mono = {}
        for j in range(n):
            for mono_f, coeff in F.entry(i, j).terms.items():
                for k, mono_a in enumerate(ansatz.monomials):
                    prod = tuple(a + b for a, b in zip(mono_f, mono_a))
                    row = per_mono.setdefault(prod, {})
                    col = j * m_g + k
                    row[col] = row.get(col, 0) + coeff
        for prod in sorted(per_mono, key=grlex_key):
            cols = per_mono[prod]
            matrix.append([cols.get(c, 0) for c in range(n * m_g)])
            row_index.append((i, prod))
    return AnsatzSystem(matrix, row_index, col_index, ansatz, n)


def nullspace(A, ncols=None):
    """Basis of the right nullspace of ``A`` by rational Gauss-Jordan elimination.

    Parameters
    ----------
    A : AnsatzSystem, ndarray, or sequence of rows
        Entries go through :func:`exact`, so floats are read as the decimal
        they spell and the result is deterministic.
    ncols : int, optional
        Required when ``A`` has no rows and is not an AnsatzSystem.

    Returns
    -------
    list of vectors, each a list of Fractions.  Empty list means the
    nullspace is trivial.
    """
    if isinstance(A, AnsatzSystem):
        rows, ncols = A.matrix, A.ncols
    else:
        rows = [list(r) for r in A]
        if rows:
            ncols = len(rows[0])
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
    work = [[Fraction(exact(x)) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, len(work)) if work[k][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][c] != 0:
                factor = work[k][c]
                work[k] = [a - factor * b for a, b in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -work[ri][f]
        basis.append(v)
    return basis


class GammaSolution:
    """Nullspace solution backing a constructed annihilator.

    ``basis`` holds one n x M_g coefficient matrix per returned column of
    G, normalized so the first nonzero entry (row-major, monomials in
    graded-lex order) equals one.
    """

    __slots__ = ("basis", "ansatz")

    def __init__(self, basis, ansatz):
        self.basis = basis
        self.ansatz = ansatz


def _degree_schedule(q_f, max_degree):
    """Homogeneous degree sets first, then widening mixed sets."""
    schedule = [frozenset({q}) for q in range(q_f, max_degree + 1)]
    schedule += [frozenset(range(q + 1)) for q in range(q_f, max_degree + 1)]
    seen, out = set(), []
    for s in schedule:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def construct_g(F, max_degree=3):
    """Construct an operator matrix G with ``F G = 0``.

    Tries ansatz degree sets in a fixed escalation order: the homogeneous
    degree of F first, then higher homogeneous degrees, then mixed sets
    {0..q}.  The first ansatz whose coefficient system has a nontrivial
    nullspace yields G, one column per nullspace basis vector.

    Returns
    -------
    (G, solution) : G is n x P over the same variables as F; ``solution``
    carries the normalized Gamma matrices and the ansatz used.

    Raises
    ------
    NoAnnihilatorFound
        If every ansatz up to ``max_degree`` gives an empty nullspace.
    """
    q_f = F.max_degree()
    if max_degree < q_f:
        raise ValueError(f"max_degree={max_degree} is below the operator degree {q_f}")
    n = F.cols
    for degrees in _degree_schedule(q_f, max_degree):
        ansatz = AnsatzBasis(F.vars, degrees)
        vectors = nullspace(build_ansatz_system(F, ansatz))
        if not vectors:
            continue
        gammas = [_normalize_gamma(v, n, ansatz.size) for v in vectors]
        columns = []
        for gamma in gammas:
            col = []
            for j in range(n):
                terms = {
                    mono: gamma[j][k]
                    for k, mono in enumerate(ansatz.monomials)
                    if gamma[j][k] != 0
                }
                col.append(OperatorPoly(F.vars, terms))
            columns.append(col)
        G = OperatorMatrix([[columns[c][j] for c in range(len(columns))]
                            for j in range(n)])
        if not symbolic_product(F, G).is_zero():
            raise RuntimeError("constructed G does not annihilate F exactly")
        return G, GammaSolution(gammas, ansatz)
    raise NoAnnihilatorFound(max_degree)


def _normalize_gamma(vec, n, m_g):
    lead = next((x for x in vec if x != 0), None)
    if lead is None:
        raise ValueError("nullspace returned a zero vector")
    scaled = [x / lead for x in vec]
    return [scaled[j * m_g:(j + 1) * m_g] for j in range(n)]
