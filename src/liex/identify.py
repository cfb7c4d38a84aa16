"""Isomorphism classes of real 3-dim Lie algebras, with explicit witnesses.

The decision tree branches on the dimension of the derived algebra, then on
exact eigenstructure of the adjoint action, and finally (for the two simple
classes) on the signature of the Killing form.  Every returned witness u is
verified on the spot: change_basis(input, u) must equal the canonical
catalog tensor entry for entry.

Two failure modes are genuine, not defensive:

  * the continuous family parameter recovered from the input is irrational
    (e.g. adjoint action [[1,2],[-1,1]] on the derived algebra gives
    invariant 1/sqrt(2)), or
  * the parameter is rational but no rational basis can reach the canonical
    form (anisotropic rational forms of the simple classes, and the
    trace-zero solvable cases whose discriminant is not a square).

The simple classes get their frames from one square test on integer forms
over one walk of primitive integer vectors by sup-norm shell: K(x, x)/2
over FRAME_SEARCH_LIMIT shells for sl2R, and B(x, x) = -K(x, x)/2 in the
coordinates of B's integer Gram reduction for so3, until
DEFINITE_SEARCH_BUDGET primitive vectors have been visited.  Neither bound
is a proof: a nonsplit sl2R form is refused after the 48,385 vectors of
its shells, and an so3 form that represents no rational square after the
2,001,313 of 84 shells, about 4 s.
"""

import math

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product as iproduct

from . import linalg
from .errors import (InputFormatError, ParameterNotRationalError,
                     RationalFormError)
from .liealg import (ad_matrix, bracket, catalog, center, change_basis,
                     derived_subalgebra, is_unimodular, killing_form,
                     make_label, nilpotency_degree, require_lie,
                     solvability_degree)

# Cartan subalgebra dimensions are static per-class metadata at dimension 3;
# no general computation is attempted.
CARTAN_DIMENSION = {
    "3A1": 3, "A2.1+A1": 2, "A3.1": 3, "A3.2": 1, "A3.3": 1,
    "A3.4": 1, "A3.5": 1, "sl2R": 1, "so3": 1,
}

FRAME_SEARCH_LIMIT = 24


@dataclass(frozen=True)
class InvariantSignature:
    dim: int
    dim_derived: int
    dim_center: int
    unimodular: bool
    solv_degree: object     # int or None (non-solvable)
    nilp_degree: object
    killing_rank: int
    killing_signature: tuple
    adjoint_parameter: object  # Fraction tr^2/det of ad on derived, when 2-dim


@dataclass(frozen=True)
class Identification:
    label: str
    param: object           # Fraction or None
    witness: tuple          # rows of the verified basis change

    def full_label(self):
        return make_label(self.label, self.param)

    def witness_matrix(self):
        return [list(r) for r in self.witness]


def signature(c):
    if c.dim != 3:
        raise InputFormatError("signature requires a 3-dim tensor")
    require_lie(c)
    der = derived_subalgebra(c)
    kf = killing_form(c)
    adjoint_parameter = None
    if der.dim == 2:
        rho, _ = _adjoint_on_derived(c, der)
        T = rho[0][0] + rho[1][1]
        D = linalg.det(rho)
        assert D != 0
        adjoint_parameter = T * T / D
    return InvariantSignature(
        dim=3,
        dim_derived=der.dim,
        dim_center=center(c).dim,
        unimodular=is_unimodular(c)["unimodular"],
        solv_degree=solvability_degree(c),
        nilp_degree=nilpotency_degree(c),
        killing_rank=kf["rank"],
        killing_signature=kf["signature"],
        adjoint_parameter=adjoint_parameter,
    )


def identify3(c):
    """Class label, canonical parameter, and an exact witness basis change."""
    if c.dim != 3:
        raise InputFormatError("identify3 requires a 3-dim tensor")
    require_lie(c)
    der = derived_subalgebra(c)
    dd = der.dim
    if dd == 0:
        name, param, rows = "3A1", None, linalg.identity(3)
    elif dd == 1:
        name, param, rows = _identify_derived1(c, der)
    elif dd == 2:
        name, param, rows = _identify_derived2(c, der)
    else:
        name, param, rows = _identify_simple(c)
    params = {} if param is None else {("a" if name == "A3.4" else "b"): param}
    target = catalog(name, **params)
    got = change_basis(c, rows)
    assert got == target, "witness check failed for %s" % name
    return Identification(label=name, param=param,
                          witness=tuple(tuple(r) for r in rows))


def _identify_derived1(c, der):
    n = 3
    w = list(der.basis[0])
    # multiplier of [w, e_m] on w; derived is 1-dim so every bracket is a
    # multiple of w
    mults = []
    for m in range(n):
        y = bracket(c, w, linalg.e_k(n, m))
        coords = der.coordinates_of(y)
        assert coords is not None
        mults.append(coords[0])
    if all(x == 0 for x in mults):
        # derived is central: Heisenberg.  Take the first nonvanishing
        # bracket of plain basis vectors as (e~2, e~3, e~1 = their bracket).
        for i in range(n):
            for j in range(i + 1, n):
                b = bracket(c, linalg.e_k(n, i), linalg.e_k(n, j))
                if any(b):
                    return "A3.1", None, [b, linalg.e_k(n, i), linalg.e_k(n, j)]
        raise AssertionError("derived dim 1 but no nonzero bracket")
    m = next(i for i, x in enumerate(mults) if x)
    lam = mults[m]
    u = linalg.e_k(n, m)
    e2 = [x / lam for x in u]
    # complete with a vector killed by both e~1 and e~2
    rows_wu = [w, u]
    v = next(linalg.e_k(n, t) for t in range(n)
             if linalg.rank(rows_wu + [linalg.e_k(n, t)]) == 3)
    mu = der.coordinates_of(bracket(c, w, v))[0]
    v1 = [a - (mu / lam) * b for a, b in zip(v, u)]
    xi = der.coordinates_of(bracket(c, u, v1))[0]
    e3 = [a + (xi / lam) * b for a, b in zip(v1, w)]
    return "A2.1+A1", None, [w, e2, e3]


def _adjoint_on_derived(c, der):
    """2x2 matrix of x -> [x, y] on the derived algebra, and the vector y.

    y is the first standard basis vector outside the derived algebra.  The
    derived algebra is automatically abelian here (it is nilpotent, and the
    2-dim nonabelian algebra is not), which we assert rather than prove.
    """
    n = 3
    f1, f2 = (list(v) for v in der.basis)
    assert not any(bracket(c, f1, f2)), "2-dim derived algebra must be abelian"
    y = next(linalg.e_k(n, m) for m in range(n)
             if not der.contains(linalg.e_k(n, m)))
    rho = linalg.zeros(2, 2)
    for col, f in enumerate((f1, f2)):
        coords = der.coordinates_of(bracket(c, f, y))
        assert coords is not None, "[derived, y] must stay in derived"
        rho[0][col], rho[1][col] = coords
    return rho, y


def _identify_derived2(c, der):
    f1, f2 = (list(v) for v in der.basis)

    def to_ambient(coords):
        return [coords[0] * a + coords[1] * b for a, b in zip(f1, f2)]

    rho, y = _adjoint_on_derived(c, der)
    T = rho[0][0] + rho[1][1]
    D = linalg.det(rho)
    assert D != 0, "adjoint action on a 2-dim derived algebra is invertible"
    disc = T * T - 4 * D

    if disc == 0:
        mu = T / 2
        nil = [[rho[0][0] - mu, rho[0][1]], [rho[1][0], rho[1][1] - mu]]
        e3 = [x / mu for x in y]
        if all(x == 0 for row in nil for x in row):
            return "A3.3", None, [f1, f2, e3]
        g2 = [Fraction(1), Fraction(0)]
        if not any(nil[r][0] for r in range(2)):
            g2 = [Fraction(0), Fraction(1)]
        g1 = [x / mu for x in linalg.mat_vec(nil, g2)]
        return "A3.2", None, [to_ambient(g1), to_ambient(g2), e3]

    if disc > 0:
        ok, s = linalg.is_perfect_square(disc)
        if not ok:
            if T == 0:
                # parameter is -1 but the eigenvalues +-sqrt(-D) are
                # irrational, so no rational diagonalizing frame exists
                raise RationalFormError(
                    "class A3.4(a=-1) admits no rational canonical basis "
                    "here: -det of the adjoint action (%s) is not a square" % (-D,),
                    witness={"trace": str(T), "det": str(D)})
            raise ParameterNotRationalError(
                "eigenvalue ratio of the adjoint action is irrational "
                "(discriminant %s is not a rational square)" % (disc,),
                witness={"trace": str(T), "det": str(D),
                         "invariant": str(T * T / D)})
        mu1, mu2 = (T + s) / 2, (T - s) / 2
        if abs(mu1) < abs(mu2):
            mu1, mu2 = mu2, mu1
        a = mu2 / mu1
        vecs = []
        for mu in (mu1, mu2):
            shifted = [[rho[0][0] - mu, rho[0][1]], [rho[1][0], rho[1][1] - mu]]
            ns = linalg.nullspace(shifted)
            assert len(ns) == 1
            vecs.append(to_ambient(ns[0]))
        e3 = [x / mu1 for x in y]
        return "A3.4", a, [vecs[0], vecs[1], e3]

    # complex eigenvalue pair sigma +- i*tau, tau > 0
    ok, twotau = linalg.is_perfect_square(-disc)
    if not ok:
        if T == 0:
            raise RationalFormError(
                "class A3.5(b=0) admits no rational canonical basis here: "
                "det of the adjoint action (%s) is not a square" % (D,),
                witness={"trace": str(T), "det": str(D)})
        raise ParameterNotRationalError(
            "rotation parameter of the adjoint action is irrational "
            "(-discriminant %s is not a rational square)" % (-disc,),
            witness={"trace": str(T), "det": str(D),
                     "invariant": str(T * T / D)})
    tau = twotau / 2
    sigma = T / 2
    flip = -1 if sigma < 0 else 1
    b = flip * sigma / tau
    rt = [[flip * x / tau for x in row] for row in rho]
    A = [[rt[0][0] - b, rt[0][1]], [rt[1][0], rt[1][1] - b]]
    A2 = linalg.mat_mul(A, A)
    assert A2 == [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    g1 = [Fraction(1), Fraction(0)]
    g2 = [-A[0][0], -A[1][0]]
    e3 = [flip * x / tau for x in y]
    return "A3.5", b, [to_ambient(g1), to_ambient(g2), e3]


def _shell(dim, r, half):
    """Integer vectors of sup norm r in lexicographic order; with `half`
    only those whose first nonzero entry is positive.

    Walks the shell's surface: a leading entry of absolute value r leaves
    the rest of the vector free, any other leading entry needs the rest on
    the (dim-1)-shell, which keeps the lexicographic order of the cube.
    """
    if dim == 1:
        yield from ([(r,)] if half else [(-r,), (r,)])
        return
    for x in range(0 if half else -r, r + 1):
        if abs(x) == r:
            rest = iproduct(range(-r, r + 1), repeat=dim - 1)
        else:
            rest = _shell(dim - 1, r, half and x == 0)
        for t in rest:
            yield (x,) + t


def _primitive_shells(dim):
    """Primitive integer vectors (int tuples) of sup norm 1, 2, ..., one
    list per shell: one representative per sign pair (first nonzero entry
    positive), lexicographic within a shell.  Deterministic."""
    for r in count(1):
        yield [v for v in _shell(dim, r, True) if math.gcd(*v) == 1]


def _primitive_vectors(dim, limit):
    """The vectors of the first `limit` primitive shells, in order."""
    for shell in islice(_primitive_shells(dim), limit):
        yield from shell


def _definite_walk():
    """The primitive shells with each shell reversed and negated: first
    nonzero entry negative, lexicographic within a shell.  A shell is
    started only while fewer than DEFINITE_SEARCH_BUDGET vectors have been
    visited, so the budget counts primitive vectors, checked per shell."""
    seen = 0
    for shell in _primitive_shells(3):
        if seen >= DEFINITE_SEARCH_BUDGET:
            return
        seen += len(shell)
        for v in reversed(shell):
            yield tuple(-x for x in v)


def _sqrt_minus_one(p):
    # p an odd prime with p % 4 == 1; smallest nonresidue powers to a root
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise AssertionError("no quadratic nonresidue mod %d" % p)


def _prime_two_squares(p):
    # Hermite-Serret descent; p == 2 or p % 4 == 1
    if p == 2:
        return 1, 1
    x = _sqrt_minus_one(p)
    a, b = p, x
    while b * b > p:
        a, b = b, a % b
    r = b
    s2 = p - r * r
    s = math.isqrt(s2)
    assert s * s == s2
    return r, s


def _two_squares(m):
    """(r, s) with r^2 + s^2 = m, or None when no decomposition exists.

    m is decomposable exactly when every prime p = 3 (mod 4) divides it to
    an even power; built up factor by factor via the two-square product
    identity.
    """
    assert m > 0
    r, s = 1, 0

    def compose(a, b):
        nonlocal r, s
        r, s = r * a - s * b, r * b + s * a

    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    for _ in range(e):
        compose(1, 1)
    p = 3
    while p * p <= m:
        if m % p == 0:
            f = 0
            while m % p == 0:
                m //= p
                f += 1
            if p % 4 == 3:
                if f % 2:
                    return None
                r *= p ** (f // 2)
                s *= p ** (f // 2)
            else:
                a, b = _prime_two_squares(p)
                for _ in range(f):
                    compose(a, b)
        p += 2
    if m > 1:
        if m % 4 == 3:
            return None
        compose(*_prime_two_squares(m))
    return abs(r), abs(s)


def _reduce_gram(M):
    """(T, G): unimodular integer rows T and the short Gram matrix
    G = T M T^t of a positive definite symmetric integer matrix M.

    Greedy pairwise reduction: repeatedly shorten row i by the nearest
    integer multiple of row j (round half to even, as round does on a
    Fraction), with the same row and column operation on G; exact for
    dimension <= 3 up to reordering.  Rows come out by increasing norm.
    Each step compares a ratio and two norms, so M and any positive
    multiple of it reduce alike.  Enumerating small integer combinations of
    the reduced rows then reaches the form's short vectors within a few
    shells, which keeps the frame search bound independent of how skew the
    input basis is.
    """
    n = len(M)
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    G = [list(row) for row in M]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or not G[j][j]:
                    continue
                t = round(Fraction(G[i][j], G[j][j]))
                if t and t * (t * G[j][j] - 2 * G[i][j]) < 0:
                    T[i] = [a - t * b for a, b in zip(T[i], T[j])]
                    for k in range(n):
                        G[i][k] -= t * G[j][k]
                    for k in range(n):
                        G[k][i] -= t * G[k][j]
                    changed = True
    order = sorted(range(n), key=lambda i: G[i][i])
    return [T[i] for i in order], [[G[i][j] for j in order] for i in order]


DEFINITE_SEARCH_BUDGET = 2_000_000

_SQ_FILTERS = [(m, frozenset(i * i % m for i in range(m))) for m in (64, 63, 65)]


def _square_root(t):
    """s > 0 with s * s == t when the integer t is a nonzero square, else
    None; most non-squares fall to the residue filters before the isqrt."""
    if t <= 0 or any(t % mod not in sq for mod, sq in _SQ_FILTERS):
        return None
    s = math.isqrt(t)
    return s if s * s == t else None


def _first_square(M, factor, candidates):
    """The first (x, s) over the integer 3-vectors x of `candidates` with
    factor * x^t M x = s^2 != 0 (s > 0), or None; M symmetric integer."""
    (a, d, e), (_, b, f), (_, _, c) = M
    d, e, f = 2 * d, 2 * e, 2 * f
    for x in candidates:
        x0, x1, x2 = x
        s = _square_root(factor * (a * x0 * x0 + b * x1 * x1 + c * x2 * x2
                                   + d * x0 * x1 + e * x0 * x2 + f * x1 * x2))
        if s is not None:
            return x, s
    return None


def _norm(B, x):
    return sum(a * b for a, b in zip(x, linalg.mat_vec(B, x)))


def _identify_simple(c):
    """sl2R or so3 by the Killing form's signature, with a rational frame.

    Both frames start from one square test on integers.  For a rational
    symmetric form A = M/D (M integer, D the least common denominator) and
    an integer vector x, A(x, x)/k = x^t M x/(kD) is a nonzero rational
    square iff the integer kD x^t M x is a nonzero square s^2, with root
    s/(kD).  The split case tests K(x, x)/2 (k = 2) over the primitive
    vectors of FRAME_SEARCH_LIMIT shells.  The definite case tests
    B = -K/2 (k = 1) in the coordinates of its integer Gram reduction, over
    primitive vectors by shell with the first nonzero entry negative, until
    DEFINITE_SEARCH_BUDGET of them have been visited at the start of a
    shell.  The reduction runs on M = D B, and a positive scale changes no
    reduction step, so the reduced frame is that of B itself.
    """
    kf = killing_form(c)
    K = kf["matrix"]
    sig = kf["signature"]
    if sig == (2, 1, 0):
        # split element: K(x,x)/2 a nonzero square; its ad has rational
        # eigenvalues -c, 0, c
        D, M = linalg.integer_rows(K)
        found = _first_square(M, 2 * D,
                              _primitive_vectors(3, FRAME_SEARCH_LIMIT))
        if found is None:
            raise RationalFormError(
                "no rational split frame found within the search bound; the "
                "input is a nonsplit rational form (or needs a larger bound)",
                witness={"bound": FRAME_SEARCH_LIMIT})
        x, s = found
        croot = Fraction(s, 2 * D)
        h = [Fraction(v) / croot for v in x]
        adh = ad_matrix(c, h)
        minus = linalg.nullspace([[adh[i][j] + (1 if i == j else 0)
                                   for j in range(3)] for i in range(3)])
        plus = linalg.nullspace([[adh[i][j] - (1 if i == j else 0)
                                  for j in range(3)] for i in range(3)])
        assert len(minus) == 1 and len(plus) == 1
        vm, vp = minus[0], plus[0]
        # [vm, vp] is a nonzero multiple of h (zero weight space)
        w = bracket(c, vm, vp)
        idx = next(t for t, v in enumerate(h) if v)
        gamma = w[idx] / h[idx]
        assert gamma != 0 and all(w[t] == gamma * h[t] for t in range(3))
        e3 = [2 * v / gamma for v in vp]
        return "sl2R", None, [vm, h, e3]

    assert sig == (0, 3, 0), "Killing signature %r impossible in dim 3" % (sig,)
    B = [[-k / 2 for k in row] for row in K]
    D, M = linalg.integer_rows(B)
    T, G = _reduce_gram(M)
    found = _first_square(G, D, _definite_walk())
    if found is None:
        raise RationalFormError(
            "no rational vector of square norm within the search budget",
            witness={"budget": DEFINITE_SEARCH_BUDGET})
    y, s = found
    croot = Fraction(s, D)
    e1 = [sum(y[k] * T[k][i] for k in range(3)) / croot for i in range(3)]
    # Once a unit vector exists the rest is forced: for w in its
    # complement, ad_{e1} preserves the form and squares to -1 there, so
    # w and [e1, w] are an orthogonal pair of equal norm q, and
    # alpha w + beta [e1, w] has norm (alpha^2 + beta^2) q.  A second
    # unit vector exists iff q is a sum of two rational squares; when it
    # is not, Witt cancellation rules out any rational orthonormal
    # frame, so the refusal is a proof rather than a search timeout.
    comp = linalg.nullspace([linalg.mat_vec(B, e1)])
    assert len(comp) == 2
    w = comp[0]
    q = _norm(B, w)
    assert q > 0
    ts = _two_squares(q.numerator * q.denominator)
    if ts is None:
        raise RationalFormError(
            "no rational orthonormal frame exists: a complement norm is "
            "not a sum of two rational squares",
            witness={"complement_norm": str(q)})
    rho = Fraction(ts[0], q.denominator)
    sig2 = Fraction(ts[1], q.denominator)
    assert rho * rho + sig2 * sig2 == q
    u = bracket(c, e1, w)
    e2 = [(rho * a + sig2 * b) / q for a, b in zip(w, u)]
    assert _norm(B, e2) == 1
    e3 = bracket(c, e1, e2)
    return "so3", None, [e1, e2, e3]


def are_isomorphic(c1, c2):
    """Basis change u with change_basis(c1, u) = c2, or None.

    Complete by the classification: equal (label, parameter) decides.
    """
    if c1.dim != 3 or c2.dim != 3:
        raise InputFormatError("are_isomorphic requires 3-dim tensors")
    r1 = identify3(c1)
    r2 = identify3(c2)
    if (r1.label, r1.param) != (r2.label, r2.param):
        return None
    w1 = r1.witness_matrix()
    w2inv = linalg.inverse(r2.witness_matrix())
    u = linalg.mat_mul(w2inv, w1)
    assert change_basis(c1, u) == c2
    return u
