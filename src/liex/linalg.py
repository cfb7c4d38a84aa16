"""Exact linear algebra over the rationals.

Everything here works on plain lists of lists of fractions.Fraction.  No
floats anywhere: ranks, nullspaces and signatures must be exact, since the
classifier downstream branches on them.
"""

import math
from fractions import Fraction


def frac(x):
    """Coerce ints/strings/Fractions to Fraction (floats rejected)."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction or 'p/q'")
    return Fraction(x)


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_copy(m):
    return [row[:] for row in m]


def mat_mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = zeros(n, p)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(p):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v)) if v[j]) or Fraction(0)
            for i in range(len(a))]


def transpose(m):
    return [list(col) for col in zip(*m)]


def rref(rows):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    Input is not modified.  Zero rows are kept at the bottom.
    """
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    """Rank by fraction-free elimination; entries may be ints or Fractions.

    Each row is reduced against the independent rows kept so far by
    cross-multiplication.  As in Bareiss's algorithm (Math. Comp. 22, 1968)
    a reduction also divides by the pivot of the row kept before, which
    stops the entries from doubling in length at every step.
    """
    basis = []
    for row in rows:
        prev = 1
        for b, p in basis:
            f, c = b[p], row[p]
            if c:
                row = [f * ri - c * bi for ri, bi in zip(row, b)]
                if prev != 1:
                    inv = 1 / Fraction(prev)
                    row = [ri * inv for ri in row]
            prev = f
        for p, x in enumerate(row):
            if x:
                basis.append((row, p))
                break
    return len(basis)


def integer_rows(m):
    """(d, rows): d the least common denominator of the entries of m (ints
    or Fractions), and rows the integer matrix d*m."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def adjugate(m):
    """(det m, adj m) of a square integer matrix, or (0, None) if singular.

    Fraction-free Gauss-Jordan elimination of [m | I] (Bareiss, Math. Comp.
    22, 1968): every row other than the pivot row becomes (p*row - f*pivot
    row) / (previous pivot), an exact integer division, since each entry is
    a minor of the augmented matrix.  The left block ends as d*I and the
    right block as d*m^-1 with d the determinant of the row-swapped matrix.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if a[i][k]), None)
        if pr is None:
            return 0, None
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], ak)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix, one vector per free column.

    Each basis vector has a 1 in its free column, standard back-substitution
    for the pivot columns.  Deterministic order (free columns ascending).
    """
    if not rows:
        assert ncols is not None, "need ncols for an empty system"
        return [e_k(ncols, k) for k in range(ncols)]
    n = len(rows[0])
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def e_k(n, k):
    v = [Fraction(0)] * n
    v[k] = Fraction(1)
    return v


def solve(a, b):
    """One solution of a x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    n = len(a)
    aug = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(n)]
    red, pivots = rref(aug)
    ncols = len(a[0])
    for r in range(len(red)):
        if all(x == 0 for x in red[r][:ncols]) and red[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the constant column
        x[pc] = red[r][ncols]
    return x


def inverse(m):
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    aug = [list(map(Fraction, m[i])) + e_k(n, i) for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def det(m):
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(m)
    a = mat_copy(m)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        d *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * d


def row_space_basis(rows):
    """Canonical (RREF) basis of the row space; empty input allowed."""
    red, pivots = rref(rows)
    return [red[i] for i in range(len(pivots))]


def in_row_space(rows_rref, pivots, v):
    """Membership test against a precomputed RREF basis."""
    w = list(map(Fraction, v))
    for r, pc in enumerate(pivots):
        if w[pc]:
            f = w[pc]
            w = [a - f * b for a, b in zip(w, rows_rref[r])]
    return all(x == 0 for x in w)


def symmetric_signature(s):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization: if no diagonal pivot is available but some
    off-diagonal entry s[i][j] is nonzero, the substitution e_i -> e_i + e_j
    creates one.  Exact, no eigenvalues needed.
    """
    n = len(s)
    a = mat_copy(s)
    for i in range(n):
        assert all(a[i][j] == a[j][i] for j in range(i, n)), "matrix not symmetric"
    plus = minus = zero = 0
    todo = list(range(n))
    m = a
    while todo:
        k = len(todo)
        # work on the trailing block in the original indexing via a dense copy
        b = [[m[todo[i]][todo[j]] for j in range(k)] for i in range(k)]
        piv = None
        for i in range(k):
            if b[i][i]:
                piv = i
                break
        if piv is None:
            off = None
            for i in range(k):
                for j in range(i + 1, k):
                    if b[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                zero += k
                break
            i, j = off
            # e_i -> e_i + e_j makes b[i][i] = 2*b[i][j] != 0
            for t in range(k):
                b[i][t] += b[j][t]
            for t in range(k):
                b[t][i] += b[t][j]
            piv = i
        d = b[piv][piv]
        if d > 0:
            plus += 1
        else:
            minus += 1
        # clear the pivot row/column by congruence
        rest = [i for i in range(k) if i != piv]
        nb = [[None] * (k - 1) for _ in range(k - 1)]
        for ii, i in enumerate(rest):
            ci = b[i][piv] / d
            for jj, j in enumerate(rest):
                nb[ii][jj] = b[i][j] - ci * b[piv][j]
        m = nb
        todo = list(range(k - 1))
        if not todo:
            break
    return plus, minus, zero


def is_perfect_square(q):
    """Exact test whether a nonnegative Fraction is a square in Q; returns
    (True, sqrt) or (False, None)."""
    q = Fraction(q)
    if q < 0:
        return False, None
    if q == 0:
        return True, Fraction(0)
    from math import isqrt
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return True, Fraction(rn, rd)
    return False, None
