"""Parametric basis families and exact contraction limits.

A family is an n x n matrix of Laurent polynomials over Q in one parameter
(written eps below).  Its inverse is adj/det, so in the eps-dependent frame
every structure constant is num/det: num a Laurent polynomial, det the
family's one determinant.  The constants are kept that way, as sparse
numerator rows over det, and no fraction is ever reduced.  The eps -> 0
limit reads each entry directly: num/det has valuation v(num) - v(det), and
when that is 0 its value at eps = 0 is num's coefficient at v(det) divided
by det's.

A family acts on columns: basis vector i of the new frame has the entries
of column i as coordinates in the old frame.  With a constant invertible
matrix B this agrees with change_basis applied to the transpose of B; the
column choice is what makes the bundled 7-dim contraction family reproduce
its target exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InputFormatError
from .liealg import (StructureTensor, check_json_dim, parse_label,
                     resolve_algebra, transform_brackets, validate_lie)


class LaurentPoly:
    """Finite-support map exponent -> rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, q in terms.items():
                q = linalg.frac(q)
                if q:
                    t[int(e)] = q
        self.terms = t

    @classmethod
    def const(cls, q):
        return cls({0: q})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        t = dict(self.terms)
        for e, q in other.terms.items():
            t[e] = t.get(e, Fraction(0)) + q
        return LaurentPoly(t)

    def __sub__(self, other):
        t = dict(self.terms)
        for e, q in other.terms.items():
            t[e] = t.get(e, Fraction(0)) - q
        return LaurentPoly(t)

    def __neg__(self):
        return LaurentPoly({e: -q for e, q in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({e: q * other for e, q in self.terms.items()})
        t = {}
        for e1, q1 in self.terms.items():
            for e2, q2 in other.terms.items():
                t[e1 + e2] = t.get(e1 + e2, Fraction(0)) + q1 * q2
        return LaurentPoly(t)

    def valuation(self):
        """Least exponent with nonzero coefficient; None for the zero poly."""
        return min(self.terms) if self.terms else None

    def coeff(self, e):
        return self.terms.get(e, Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*eps^%d" % (q, e) for e, q in sorted(self.terms.items()))

    def to_json(self):
        return {str(e): str(q) for e, q in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls({int(e): linalg.frac(q) for e, q in obj.items()})
        except (TypeError, ValueError, AttributeError, ZeroDivisionError):
            raise InputFormatError("bad Laurent polynomial %r" % (obj,))


class LaurentBasisFamily:
    """n x n matrix of Laurent polynomials, invertible as a matrix over the
    fraction field (nonzero determinant)."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries):
        self.dim = dim
        rows = []
        for row in entries:
            if len(row) != dim:
                raise InputFormatError("family matrix is not square")
            rows.append([e if isinstance(e, LaurentPoly) else LaurentPoly.const(e)
                         for e in row])
        if len(rows) != dim:
            raise InputFormatError("family matrix is not square")
        self.entries = rows

    @classmethod
    def diagonal_powers(cls, exps):
        n = len(exps)
        m = [[LaurentPoly() for _ in range(n)] for _ in range(n)]
        for i, e in enumerate(exps):
            m[i][i] = LaurentPoly.monomial(e)
        return cls(n, m)

    def to_json(self):
        ent = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if self.entries[i][j]:
                    ent["%d,%d" % (i + 1, j + 1)] = self.entries[i][j].to_json()
        return {"dim": self.dim, "entries": ent}

    @classmethod
    def from_json(cls, obj):
        try:
            n = obj["dim"]
            raw = obj["entries"]
        except (TypeError, KeyError):
            raise InputFormatError("family JSON needs 'dim' and 'entries'")
        check_json_dim(n)
        if not isinstance(raw, dict):
            raise InputFormatError("'entries' must be an object")
        m = [[LaurentPoly() for _ in range(n)] for _ in range(n)]
        for key, val in raw.items():
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise InputFormatError("bad entry key %r" % (key,))
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputFormatError("entry key %r out of range" % (key,))
            m[i - 1][j - 1] = LaurentPoly.from_json(val)
        return cls(n, m)


def _det_minor(entries, rows, cols, memo):
    if not rows:
        return LaurentPoly.const(1)
    key = (rows, cols)
    if key in memo:
        return memo[key]
    r = rows[0]
    rest = rows[1:]
    acc = LaurentPoly()
    for pos, c in enumerate(cols):
        e = entries[r][c]
        if not e:
            continue
        sub = _det_minor(entries, rest, cols[:pos] + cols[pos + 1:], memo)
        term = e * sub
        acc = acc + term if pos % 2 == 0 else acc - term
    memo[key] = acc
    return acc


def family_adjugate(fam):
    """(det, adj) with adj*B = det(B)*I; adj[i][j] = (-1)^(i+j) minor(del
    row j, col i).  det expands along the first row over the memoised
    minors of column 0 of adj."""
    n = fam.dim
    memo = {}
    adj = [[None] * n for _ in range(n)]
    full = tuple(range(n))
    for i in range(n):
        cols = tuple(c for c in full if c != i)
        for j in range(n):
            rows = tuple(r for r in full if r != j)
            m = _det_minor(fam.entries, rows, cols, memo)
            adj[i][j] = m if (i + j) % 2 == 0 else -m
    det = sum((e * adj[c][0] for c, e in enumerate(fam.entries[0]) if e),
              LaurentPoly())
    return det, adj


class ParametricTensor:
    """Structure constants num/det in an eps-dependent frame.

    rows has the StructureTensor layout: each pair (i, j), i < j, with a
    nonzero bracket maps to the tuple of its nonzero (k, num), k ascending;
    every constant shares the one denominator det.
    """

    __slots__ = ("dim", "rows", "det")

    def __init__(self, dim, rows, det):
        self.dim = dim
        self.rows = rows
        self.det = det


def transform_parametric(c, fam):
    """Structure constants in the eps-dependent frame given by fam's columns."""
    n = c.dim
    if fam.dim != n:
        raise InputFormatError("family dimension %d != algebra dimension %d"
                               % (fam.dim, n))
    det, adj = family_adjugate(fam)
    if not det:
        raise InputFormatError("family determinant is identically zero")
    out = {}
    for i, j, w in transform_brackets(n, c.rows, linalg.transpose(fam.entries),
                                      linalg.transpose(adj), LaurentPoly()):
        row = tuple((k, x) for k, x in enumerate(w) if x)
        if row:
            out[(i, j)] = row
    return ParametricTensor(n, out, det)


@dataclass(frozen=True)
class Divergent:
    """First-class marker for a limit that does not exist."""
    i: int
    j: int
    k: int
    valuation: int

    def to_json(self):
        return {"divergent": {"i": self.i, "j": self.j, "k": self.k,
                              "valuation": self.valuation}}


def limit(pt):
    """eps -> 0 limit: the tensor of constant terms, or a Divergent marker
    naming the first entry (i, j, k), i < j, with negative valuation.  The
    entry (j, i, k) is the same constant negated, so no ordered triple with
    a negative valuation comes before that one."""
    v0 = pt.det.valuation()
    for (i, j), row in pt.rows.items():
        for k, x in row:
            v = x.valuation() - v0
            if v < 0:
                return Divergent(i + 1, j + 1, k + 1, v)
    lead = pt.det.coeff(v0)
    t = StructureTensor(pt.dim, {ij: [(k, x.coeff(v0) / lead) for k, x in row]
                                 for ij, row in pt.rows.items()})
    rep = validate_lie(t)
    assert rep["ok"], "contraction limit lost the Jacobi identity"
    return t


def verify_contraction(source, fam, target_label, post_change=None):
    """Transform, take the limit, and compare with the named target.

    3-dim targets are compared up to isomorphism via the classifier; other
    dimensions by exact equality, optionally after a user-supplied basis
    change applied to the limit.  Returns a report dict; never raises on a
    divergent limit.
    """
    from .identify import identify3

    name, params = parse_label(target_label)
    target = resolve_algebra(target_label)
    lim = limit(transform_parametric(source, fam))
    report = {"target": target_label}
    if isinstance(lim, Divergent):
        report.update(lim.to_json())
        report["ok"] = False
        return report
    report["limit"] = lim.to_json()
    if lim.dim == 3 and target.dim == 3:
        ident = identify3(lim)
        report["identified"] = ident.full_label()
        want_param = params.get("a", params.get("b"))
        report["ok"] = (ident.label, ident.param) == (name, want_param)
    else:
        probe = lim
        if post_change is not None:
            from .liealg import change_basis
            probe = change_basis(lim, post_change)
        report["ok"] = probe == target
        report["identified"] = target_label if report["ok"] else None
    return report


def _ufe():
    h = Fraction(1, 2)
    m = LaurentPoly.monomial
    entries = [[LaurentPoly() for _ in range(7)] for _ in range(7)]
    for i, e in enumerate((1, 3, 4, 5, 6, 7, 8)):
        entries[i][i] = m(e)
    entries[3][1] = m(4, h)
    entries[4][2] = m(5, h)
    entries[5][3] = m(6, h)
    entries[6][4] = m(7, h)
    return LaurentBasisFamily(7, entries)


# the 7-dim family whose eps->0 limit carries gF onto gE
U_FE = _ufe()

BUILTIN_FAMILIES = {"UFE": U_FE}


def resolve_family(name):
    try:
        return BUILTIN_FAMILIES[name]
    except KeyError:
        raise InputFormatError("unknown family name %r (builtins: %s)"
                               % (name, ", ".join(sorted(BUILTIN_FAMILIES))))
