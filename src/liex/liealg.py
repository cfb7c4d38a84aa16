"""Structure-constant tensors with exact rational entries.

Conventions used throughout the package:

  * [e_i, e_j] = sum_k C_ij^k e_k.  Storage is 0-based, every reported
    witness/index is 1-based.
  * A tensor stores only its nonzero brackets: StructureTensor.rows maps
    each pair (i, j) with i < j and [e_i, e_j] != 0 to the tuple of its
    nonzero (k, C_ij^k), k ascending.  C_ji = -C_ij and C_ii = 0 are
    implied, so antisymmetry holds by construction; the canonical form
    makes == and hash plain comparisons of the stored rows.
  * A basis change u acts by rows: new_i = sum_p u[i][p] old_p, so
    C'_ij^k = sum u[i][p] u[j][q] C_pq^r uinv[r][k].
  * Jacobi residual of a triple (i,j,k) is the vector
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]].

Nothing in here enforces the Jacobi identity at construction time;
validate_lie reports every violation so that broken tensors can be examined
(the search module depends on cheap construction).  Its report keeps an
"antisymmetry" list for the JSON output, which is always empty.
"""

import math
import re
from fractions import Fraction

from . import linalg
from .errors import InputFormatError, NotALieAlgebraError, NotASubalgebraError


# largest "dim" a tensor or basis family read from JSON may declare: the
# work and memory of validate_lie, center and derivation_algebra grow as
# powers of dim, so an untrusted file must not pick it freely
MAX_JSON_DIM = 64


class StructureTensor:
    __slots__ = ("dim", "rows", "_hash", "_num")

    def __init__(self, dim, rows):
        """rows maps 0-based pairs (i, j), i < j, to iterables of (k, coeff).

        Zero coefficients and empty rows are dropped and each row is sorted
        by k, so equal tensors store equal rows.  Indices are trusted: input
        from outside the program goes through from_brackets.  A tensor is
        never modified after construction, which lets it cache its hash and
        its integer numerators (see _numerators).
        """
        canon = {}
        for ij, row in sorted(rows.items()):
            row = tuple(sorted((k, q) for k, q in row if q))
            if row:
                canon[ij] = row
        self.dim = dim
        self.rows = canon
        self._hash = None
        self._num = None

    @classmethod
    def from_brackets(cls, n, brackets):
        """Build from sparse 1-based data {(i,j): {k: coeff}} with i != j.

        Antisymmetry is filled in automatically; specifying both (i,j) and
        (j,i) is rejected to avoid silent double entry.
        """
        rows = {}
        seen = set()
        for (i, j), coeffs in brackets.items():
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise InputFormatError("bad bracket pair (%r,%r)" % (i, j))
            if (j, i) in seen:
                raise InputFormatError("both (%d,%d) and (%d,%d) specified" % (i, j, j, i))
            seen.add((i, j))
            row = []
            for k, q in coeffs.items():
                if not 1 <= k <= n:
                    raise InputFormatError("bracket target %r out of range" % (k,))
                v = linalg.frac(q)
                row.append((k - 1, v if i < j else -v))
            rows[(min(i, j) - 1, max(i, j) - 1)] = row
        return cls(n, rows)

    def bracket_of(self, i, j):
        """{k: coeff} for [e_i, e_j], 1-based, zero entries omitted."""
        if i > j:
            return {k: -q for k, q in self.bracket_of(j, i).items()}
        return {k + 1: q for k, q in self.rows.get((i - 1, j - 1), ())}

    def nonzero_brackets(self):
        """Sorted list of (i, j, {k: coeff}) over i < j with nonzero bracket."""
        return [(i + 1, j + 1, {k + 1: q for k, q in row})
                for (i, j), row in self.rows.items()]

    def __eq__(self, other):
        return (isinstance(other, StructureTensor) and self.dim == other.dim
                and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, tuple(self.rows.items())))
        return self._hash

    def __repr__(self):
        rel = ", ".join("[e%d,e%d]=%s" % (i, j, "+".join(
            ("%s*e%d" % (q, k)) for k, q in sorted(b.items())))
            for i, j, b in self.nonzero_brackets())
        return "StructureTensor(dim=%d%s)" % (self.dim, ", " + rel if rel else "")

    def to_json(self):
        brackets = []
        for i, j, b in self.nonzero_brackets():
            brackets.append({"i": i, "j": j,
                             "coeffs": {str(k): str(q) for k, q in sorted(b.items())}})
        return {"dim": self.dim, "brackets": brackets}

    @classmethod
    def from_json(cls, obj):
        try:
            n = obj["dim"]
            entries = obj.get("brackets", [])
        except (TypeError, KeyError):
            raise InputFormatError("tensor JSON needs 'dim' and 'brackets'")
        check_json_dim(n)
        if not isinstance(entries, list):
            raise InputFormatError("'brackets' must be a list")
        br = {}
        for e in entries:
            try:
                i, j = e["i"], e["j"]
                coeffs = {int(k): linalg.frac(v) for k, v in e["coeffs"].items()}
            except (TypeError, KeyError, ValueError, ZeroDivisionError,
                    AttributeError):
                raise InputFormatError("bad bracket entry %r" % (e,))
            if not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in (i, j)):
                raise InputFormatError("bracket indices must be integers, got (%r,%r)"
                                       % (i, j))
            if not i < j:
                raise InputFormatError("bracket entries must have i < j, got (%r,%r)" % (i, j))
            br[(i, j)] = coeffs
        return cls.from_brackets(n, br)


def check_json_dim(n):
    """Refuse a JSON "dim" that is not an integer in 1..MAX_JSON_DIM."""
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_JSON_DIM:
        raise InputFormatError("bad dimension %r (need an integer in 1..%d)"
                               % (n, MAX_JSON_DIM))


def bracket(c, x, y):
    """[x, y] for coordinate vectors x, y."""
    out = [Fraction(0)] * c.dim
    for (i, j), row in c.rows.items():
        f = x[i] * y[j] - x[j] * y[i]
        if f:
            for k, q in row:
                out[k] += f * q
    return out


def ad_matrix(c, x):
    """Matrix of ad_x : v -> [x, v] (columns are images of basis vectors)."""
    n = c.dim
    m = linalg.zeros(n, n)
    for j in range(n):
        col = bracket(c, x, linalg.e_k(n, j))
        for k in range(n):
            m[k][j] = col[k]
    return m


class Subspace:
    """Span of rational vectors, stored as a reduced row-echelon basis.

    The canonical basis makes equality of subspaces plain tuple equality.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, generators):
        self.ambient = ambient
        rows = [list(map(linalg.frac, g)) for g in generators]
        for r in rows:
            if len(r) != ambient:
                raise InputFormatError("generator length != ambient dimension")
        self.basis = tuple(tuple(r) for r in linalg.row_space_basis(rows))
        self.pivots = tuple(next(i for i, x in enumerate(r) if x)
                            for r in self.basis)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v):
        """Coefficients of v in the stored basis, or None if outside.

        The basis is reduced echelon with unit pivots, so candidate
        coefficients are read off the pivot coordinates; one reconstruction
        pass decides membership.
        """
        coords = [v[p] for p in self.pivots]
        for i in range(self.ambient):
            s = sum(c * row[i] for c, row in zip(coords, self.basis) if c)
            if s != v[i]:
                return None
        return [linalg.frac(x) for x in coords]

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.ambient)


def span_of_brackets(c, a, b):
    """Subspace spanned by all [x, y], x in a, y in b."""
    vecs = [bracket(c, list(x), list(y)) for x in a.basis for y in b.basis]
    return Subspace(c.dim, vecs)


def full_space(n):
    return Subspace(n, [linalg.e_k(n, i) for i in range(n)])


def _numerators(c):
    """(d, rows): d the common denominator of all coefficients of c, and its
    stored rows with each coefficient multiplied by d (so integers).

    Made once per tensor and cached on it, so the result is shared: callers
    read it and never modify it."""
    if c._num is None:
        d = math.lcm(*(q.denominator for row in c.rows.values() for _, q in row))
        c._num = d, {ij: tuple((k, q.numerator * (d // q.denominator)) for k, q in row)
                     for ij, row in c.rows.items()}
    return c._num


def _adjoint_rows(rows):
    """{i: {m: row of [e_i, e_m]}} over the nonzero brackets, signs applied."""
    adj = {}
    for (i, j), row in rows.items():
        adj.setdefault(i, {})[j] = row
        adj.setdefault(j, {})[i] = tuple((k, -q) for k, q in row)
    return adj


def validate_lie(c):
    """Report Jacobi violations.

    {"ok": bool, "antisymmetry": [], "jacobi": [(i,j,k, l, residual)...]}
    with 1-based indices; the jacobi entries list each nonzero component l
    of the residual vector of the triple (i,j,k), i<j<k, in that order.
    Antisymmetry holds by construction, so its list is always empty.

    Only the terms [e_x, [e_a, e_b]] whose two brackets are both nonzero
    are formed.  The arithmetic is on integer numerators over the common
    denominator d of all coefficients, so a residual is an integer over d^2.
    """
    d, num = _numerators(c)
    adj = _adjoint_rows(num)
    acc = {}
    # the residual of i<j<k is [e_i,[e_j,e_k]] - [e_j,[e_i,e_k]] +
    # [e_k,[e_i,e_j]]: each stored pair (a, b) meets every outer index x
    # through [e_x, e_m] = -[e_m, e_x] for m in the support of [e_a, e_b]
    for (a, b), row in num.items():
        for m, p in row:
            for x, inner in adj.get(m, {}).items():
                if x == a or x == b:
                    continue
                f = p if a < x < b else -p
                res = acc.setdefault(tuple(sorted((a, b, x))), {})
                for l, r in inner:
                    res[l] = res.get(l, 0) + f * r
    dd = d * d
    jac = [(i + 1, j + 1, k + 1, l + 1, Fraction(v, dd))
           for (i, j, k), res in sorted(acc.items())
           for l, v in sorted(res.items()) if v]
    return {"ok": not jac, "antisymmetry": [], "jacobi": jac}


def require_lie(c):
    rep = validate_lie(c)
    if not rep["ok"]:
        i, j, k, l, res = rep["jacobi"][0]
        raise NotALieAlgebraError(
            "tensor fails Jacobi at (%d,%d,%d), residual %s on e_%d" % (i, j, k, res, l),
            witness=[i, j, k, l, str(res)])
    return c


def transform_brackets(n, brackets, rows, back, zero):
    """Yield (i, j, w) for i < j: w holds the coordinates of [new_i, new_j]
    in the new frame, where the old bracket is given by `brackets` (stored
    rows in the StructureTensor layout), new_i = sum_p rows[i][p] old_p and
    the old coordinate r maps to sum_k back[r][k] new_k.

    The entries may come from any commutative ring whose zero is `zero`
    (int, or LaurentPoly in contraction.py).
    """
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            rj = rows[j]
            # [new_i, new_j] in old coordinates
            v = [zero] * n
            for (p, q), row in brackets.items():
                f = ri[p] * rj[q] - ri[q] * rj[p]
                if f:
                    for r, x in row:
                        v[r] += f * x
            yield i, j, [sum((v[r] * back[r][k] for r in range(n) if v[r]), zero)
                         for k in range(n)]


def change_basis(c, u):
    """Rewrite the bracket in the basis new_i = sum_p u[i][p] old_p.

    The arithmetic is on integers.  With u = U/du and the coefficients
    N/dc (U and N integer, du and dc their common denominators), u^-1 is
    du adj(U)/det U, so every new coefficient is an integer bilinear
    expression in U, N and adj(U) over the one denominator du*dc*det U.
    One fraction-free elimination gives det U and adj U; a Fraction is
    made only for each nonzero output coefficient.
    """
    n = c.dim
    if len(u) != n or any(len(row) != n for row in u):
        raise InputFormatError("basis change must be %d x %d" % (n, n))
    du, U = linalg.integer_rows([[linalg.frac(x) for x in row] for row in u])
    det, adj = linalg.adjugate(U)
    if not det:
        raise InputFormatError("basis change matrix is singular")
    dc, num = _numerators(c)
    den = du * dc * det
    return StructureTensor(n, {
        (i, j): [(k, Fraction(x, den)) for k, x in enumerate(w) if x]
        for i, j, w in transform_brackets(n, num, U, adj, 0)})


def is_unimodular(c):
    """{"unimodular": bool, "traces": [tr ad_{e_1}, ...]}."""
    traces = [Fraction(0)] * c.dim
    for (i, j), row in c.rows.items():
        for k, q in row:
            if k == j:
                traces[i] += q
            elif k == i:
                traces[j] -= q
    return {"unimodular": all(t == 0 for t in traces), "traces": traces}


def derived_series(c):
    """[g, [g,g], [[g,g],[g,g]], ...] until the series stabilizes.

    The last entry is either the zero subspace or a repeat of its
    predecessor (witnessing a nonzero stable term).
    """
    series = [full_space(c.dim)]
    while True:
        nxt = span_of_brackets(c, series[-1], series[-1])
        series.append(nxt)
        if nxt.dim == 0 or nxt == series[-2]:
            return series


def lower_central_series(c):
    """[g, [g,g], [g,[g,g]], ...] until stabilization, same convention."""
    g = full_space(c.dim)
    series = [g]
    while True:
        nxt = span_of_brackets(c, g, series[-1])
        series.append(nxt)
        if nxt.dim == 0 or nxt == series[-2]:
            return series


def solvability_degree(c):
    """Number of derived-series steps to reach zero, or None if never."""
    s = derived_series(c)
    return len(s) - 1 if s[-1].dim == 0 else None


def nilpotency_degree(c):
    """Number of lower-central steps to reach zero, or None if never."""
    s = lower_central_series(c)
    return len(s) - 1 if s[-1].dim == 0 else None


def derived_subalgebra(c):
    """[g, g]: the span of the stored brackets [e_i, e_j], i < j."""
    vecs = []
    for row in c.rows.values():
        v = [0] * c.dim
        for k, q in row:
            v[k] = q
        vecs.append(v)
    return Subspace(c.dim, vecs)


def center(c):
    """{v : [v, x] = 0 for all x}, via one stacked linear system."""
    n = c.dim
    eqs = {}
    for i, brs in _adjoint_rows(c.rows).items():
        for j, row in brs.items():
            for k, q in row:
                eqs.setdefault((j, k), [Fraction(0)] * n)[i] = q
    return Subspace(n, linalg.nullspace([eqs[jk] for jk in sorted(eqs)], ncols=n))


def killing_form(c):
    """{"matrix": K, "rank": r, "signature": (plus, minus, zero)}.

    K[i][j] = tr(ad_{e_i} ad_{e_j}) = sum over q, p of C_iq^p C_jp^q, read
    off the stored rows on integer numerators over d^2, d the common
    denominator of c; signature by exact congruence diagonalization.
    """
    n = c.dim
    d, num = _numerators(c)
    # ads[i] maps (q, p) to C_iq^p, the nonzero entries of ad_{e_i}
    ads = {i: {(q, p): x for q, row in brs.items() for p, x in row}
           for i, brs in _adjoint_rows(num).items()}
    dd = d * d
    K = linalg.zeros(n, n)
    for i, a in ads.items():
        for j, b in ads.items():
            if i <= j:
                K[i][j] = K[j][i] = Fraction(
                    sum(x * b.get((p, q), 0) for (q, p), x in a.items()), dd)
    return {"matrix": K, "rank": linalg.rank(K),
            "signature": linalg.symmetric_signature(K)}


def derivation_algebra(c):
    """Basis of the space of derivations D[x,y] = [Dx,y] + [x,Dy].

    Unknowns are the n^2 entries of D (row-major); one equation per basis
    pair i<j and target coordinate s.  Returns matrices, deterministic order.
    """
    n = c.dim
    adj = _adjoint_rows(c.rows)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            # component s of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0, with
            # [e_r, e_j] = -[e_j, e_r]
            eqs = [[Fraction(0)] * (n * n) for _ in range(n)]
            for k, q in c.rows.get((i, j), ()):
                for s in range(n):
                    eqs[s][s * n + k] += q
            for r, row in adj.get(j, {}).items():
                for s, q in row:
                    eqs[s][r * n + i] += q
            for r, row in adj.get(i, {}).items():
                for s, q in row:
                    eqs[s][r * n + j] -= q
            rows.extend(e for e in eqs if any(e))
    basis = linalg.nullspace(rows, ncols=n * n)
    return [[v[r * n:(r + 1) * n] for r in range(n)] for v in basis]


def _mat_comm(a, b):
    n = len(a)
    ab = linalg.mat_mul(a, b)
    ba = linalg.mat_mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def _flat(m):
    return [x for row in m for x in row]


def is_nilpotent_matrix_algebra(basis):
    """Lie-nilpotency of the matrix algebra spanned by the given matrices.

    The span must be closed under commutator (checked; violation raises).
    Computes spans of iterated commutator layers [L, [L, [...]]] until they
    stabilize; nilpotent iff the stable layer is zero.
    """
    if not basis:
        return True
    n = len(basis[0])
    red, pivots = linalg.rref([_flat(m) for m in basis])
    span_rows = [red[i] for i in range(len(pivots))]
    for a in basis:
        for b in basis:
            if not linalg.in_row_space(span_rows, pivots, _flat(_mat_comm(a, b))):
                raise NotASubalgebraError(
                    "matrix span is not closed under commutator")
    layer = basis
    prev_dim = None
    while True:
        nxt = [_mat_comm(a, m) for a in basis for m in layer]
        rows = linalg.row_space_basis([_flat(m) for m in nxt])
        d = len(rows)
        if d == 0:
            return True
        if prev_dim is not None and d >= prev_dim:
            return False
        prev_dim = d
        layer = [[r[i * n:(i + 1) * n] for i in range(n)] for r in rows]


# --- catalog -------------------------------------------------------------

F = Fraction


def _param(params, key, label):
    if set(params) != {key}:
        raise InputFormatError("%s takes exactly the parameter %s" % (label, key))
    return linalg.frac(params[key])


def catalog(name, **params):
    """Canonical structure tensor for a named class.

    Names: 3A1, A2.1+A1, A3.1, A3.2, A3.3, A3.4 (parameter a, 0<|a|<=1),
    A3.5 (parameter b >= 0), sl2R, so3, gF, gE.
    """
    plain = {
        "3A1": (3, {}),
        "A2.1+A1": (3, {(1, 2): {1: 1}}),
        "A3.1": (3, {(2, 3): {1: 1}}),
        "A3.2": (3, {(1, 3): {1: 1}, (2, 3): {1: 1, 2: 1}}),
        "A3.3": (3, {(1, 3): {1: 1}, (2, 3): {2: 1}}),
        "sl2R": (3, {(1, 2): {1: 1}, (2, 3): {3: 1}, (1, 3): {2: 2}}),
        "so3": (3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}),
        "gF": (7, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1},
                   (1, 5): {6: 1}, (1, 6): {7: 1},
                   (2, 3): {6: 1}, (2, 4): {7: 1}, (2, 5): {7: 1},
                   (3, 4): {7: -1}}),
        "gE": (7, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1},
                   (1, 5): {6: 1}, (1, 6): {7: 1},
                   (2, 3): {6: 1, 7: 1}, (2, 4): {7: 1}}),
    }
    if name in plain:
        if params:
            raise InputFormatError("%s takes no parameters" % name)
        n, br = plain[name]
        return StructureTensor.from_brackets(n, br)
    if name == "A3.4":
        a = _param(params, "a", "A3.4")
        if not 0 < abs(a) <= 1:
            raise InputFormatError("A3.4 parameter a must satisfy 0 < |a| <= 1")
        return StructureTensor.from_brackets(3, {(1, 3): {1: 1}, (2, 3): {2: a}})
    if name == "A3.5":
        b = _param(params, "b", "A3.5")
        if b < 0:
            raise InputFormatError("A3.5 parameter b must satisfy b >= 0")
        return StructureTensor.from_brackets(
            3, {(1, 3): {1: b, 2: -1}, (2, 3): {1: 1, 2: b}})
    raise InputFormatError("unknown catalog name %r" % (name,))


CATALOG_NAMES = ("3A1", "A2.1+A1", "A3.1", "A3.2", "A3.3", "A3.4", "A3.5",
                 "sl2R", "so3", "gF", "gE")

_LABEL_RE = re.compile(r"^(?P<name>[^()]+?)\s*(?:\(\s*(?:(?P<key>[ab])\s*=\s*)?"
                       r"(?P<val>-?\d+(?:/\d+)?)\s*\))?$")


def parse_label(label):
    """Split 'A3.4(a=1/2)' style labels into (name, params dict).

    The parameter key may be omitted inside the parentheses; it defaults to
    the parameter the named family takes.
    """
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise InputFormatError("cannot parse class label %r" % (label,))
    name = m.group("name").strip()
    if m.group("val") is None:
        return name, {}
    key = m.group("key")
    if key is None:
        key = {"A3.4": "a", "A3.5": "b"}.get(name)
        if key is None:
            raise InputFormatError("label %r has a parameter but %r takes none"
                                   % (label, name))
    return name, {key: Fraction(m.group("val"))}


def make_label(name, param=None):
    if param is None:
        return name
    key = {"A3.4": "a", "A3.5": "b"}[name]
    return "%s(%s=%s)" % (name, key, param)


def resolve_algebra(label):
    """Catalog tensor for a label string such as 'sl2R' or 'A3.4(a=1/2)'."""
    name, params = parse_label(label)
    return catalog(name, **params)
