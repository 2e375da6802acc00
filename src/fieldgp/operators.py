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
G with ``F G = 0``, so that any field ``f = G[g]`` satisfies the constraint
identically.  An ansatz, a graded-lex list of derivative monomials, spans
candidate columns of G; :func:`build_ansatz_system` expands the product into
exact rows and :func:`nullspace` reads G off them, all in rational
arithmetic, so ``F G = 0`` holds exactly.
"""

import json
import math
import numbers
import re
from fractions import Fraction
from itertools import combinations_with_replacement


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

    def __mul__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        if other.p != self.p:
            raise DimensionMismatch("variable counts differ")
        prod = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                prod[mono] = prod.get(mono, 0) + c1 * c2
        return OperatorPoly(self.p, prod)

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
        grid = [[OperatorPoly.zero(p)] * cols for _ in range(rows)]
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
                grid[i][j] = grid[i][j] + OperatorPoly(p, terms)  # repeated cells sum
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed operator entries: {exc!r}") from None
        return cls(grid)

    def dump_json(self, path):
        doc = self.to_json_dict()
        doc["rendered"] = self.render().splitlines()
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _json_int(value, key):
    """``value`` if it is a JSON integer (not a boolean), else a ValueError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"operator spec {key!r}: {value!r} is not an integer")
    return value


def _coeff_to_json(c):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


#: Most digits, and largest decimal exponent, of a string coefficient in a
#: JSON spec: Python's own limit on the digits of a JSON integer.
#: ``Fraction`` expands an exponent exactly, so "1e-4000000" alone would
#: take seconds and a 13-million-bit denominator.
MAX_COEFF_DIGITS = 4300


def _coeff_from_json(raw):
    if not isinstance(raw, str):
        return exact(raw)
    exponent = re.search(r"[eE][-+]?(\d[\d_]*)", raw)
    if (sum(ch.isdecimal() for ch in raw) > MAX_COEFF_DIGITS
            or exponent and int(exponent[1].replace("_", "")) > MAX_COEFF_DIGITS):
        shown = raw if len(raw) <= 40 else raw[:40] + "..."
        raise ValueError(f"operator spec coefficient {shown!r}: more than "
                         f"{MAX_COEFF_DIGITS} digits or a larger decimal exponent")
    return Fraction(raw)


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


def build_ansatz_system(F, monomials):
    """Expand ``F (Gamma xi)`` and collect coefficients into ``(A, row_index)``.

    ``monomials`` is the ansatz xi: the derivative monomials that each
    candidate column ``gamma = Gamma xi`` of G combines.  Row r of the exact
    matrix ``A`` is one (constraint row i, product monomial) pair,
    ``row_index[r]``, that can receive a nonzero coefficient, with product
    monomials in graded-lex order within each i.  Column ``j * M + k`` (M
    monomials) is Gamma's entry for output component j and monomial k, so
    ``A @ vec(Gamma) = 0``, Gamma flattened row-major, holds exactly when the
    operator identity does.  Commuting symbols make mixed products symmetrize
    automatically.
    """
    if any(len(mono) != F.vars for mono in monomials):
        raise DimensionMismatch(
            f"ansatz over {len(monomials[0])} variables, operator over {F.vars}"
        )
    n = F.cols
    m_g = len(monomials)
    matrix = []
    row_index = []
    for i in range(F.rows):
        # coefficient of each achievable product monomial, per Gamma entry
        per_mono = {}
        for j in range(n):
            for mono_f, coeff in F.entry(i, j).terms.items():
                for k, mono_a in enumerate(monomials):
                    prod = tuple(a + b for a, b in zip(mono_f, mono_a))
                    row = per_mono.setdefault(prod, {})
                    col = j * m_g + k
                    row[col] = row.get(col, 0) + coeff
        for prod in sorted(per_mono, key=grlex_key):
            cols = per_mono[prod]
            matrix.append([cols.get(c, 0) for c in range(n * m_g)])
            row_index.append((i, prod))
    return matrix, row_index


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of a matrix by rational Gauss-Jordan elimination.

    Parameters
    ----------
    rows : ndarray or sequence of rows
        Entries go through :func:`exact`, so floats are read as the decimal
        they spell and the result is deterministic.
    ncols : int, optional
        Required when the matrix has no rows.

    Returns
    -------
    list of vectors, each a list of Fractions.  Empty list means the
    nullspace is trivial.
    """
    rows = [list(r) for r in rows]
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


def construct_g(F, max_degree=3):
    """Construct an operator matrix G with ``F G = 0``.

    Tries ansatz degree sets in a fixed escalation order: homogeneous {q}
    for q from F's degree q_F to ``max_degree``, then mixed {0..q} for q
    from max(q_F, 1).  An ansatz is every monomial of those degrees, in
    graded-lex order.  The first whose coefficient system has a nontrivial
    nullspace yields G, one column per nullspace basis vector divided by
    its first nonzero coefficient (component-major, monomials in order).

    Returns
    -------
    (G, degrees) : G is n x P over the same variables as F; ``degrees``
    is the frozenset of ansatz degrees that produced it.

    Raises
    ------
    NoAnnihilatorFound
        If every ansatz up to ``max_degree`` gives an empty nullspace.
    """
    q_f = F.max_degree()
    if max_degree < q_f:
        raise ValueError(f"max_degree={max_degree} is below the operator degree {q_f}")
    n = F.cols
    schedule = [frozenset({q}) for q in range(q_f, max_degree + 1)]
    schedule += [frozenset(range(q + 1)) for q in range(max(q_f, 1), max_degree + 1)]
    for degrees in schedule:
        monomials = [m for q in sorted(degrees) for m in monomials_of_degree(F.vars, q)]
        m_g = len(monomials)
        vectors = nullspace(build_ansatz_system(F, monomials)[0], n * m_g)
        if not vectors:
            continue
        gammas = []
        for v in vectors:  # each divided by its first nonzero coefficient
            lead = next(x for x in v if x != 0)
            gammas.append([x / lead for x in v])
        G = OperatorMatrix([[OperatorPoly(F.vars, dict(zip(monomials, g[j * m_g:(j + 1) * m_g])))
                             for g in gammas] for j in range(n)])
        if not symbolic_product(F, G).is_zero():
            raise RuntimeError("constructed G does not annihilate F exactly")
        return G, degrees
    raise NoAnnihilatorFound(max_degree)
