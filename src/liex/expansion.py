"""Semigroup expansions of Lie algebras and their reductions.

The expanded algebra of an order-N semigroup S and an n-dim algebra g lives
on basis elements E_{(i-1)N + alpha}, the product of semigroup element alpha
with algebra generator i.  The flat layout (algebra index major) is part of
the interface: golden tables downstream depend on it.
"""

import re
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import (InputFormatError, NotASemigroupError, NotASubalgebraError,
                     NotReducibleError, NotResonantError)
from .liealg import StructureTensor, Subspace, bracket, require_lie, validate_lie
from .semigroup import require_zero, validate_semigroup


def flat_index(i, alpha, order):
    """1-based flat index of algebra generator i tensored with element alpha."""
    return (i - 1) * order + alpha


def split_index(flat, order):
    """Inverse of flat_index; returns (i, alpha), both 1-based."""
    return (flat - 1) // order + 1, (flat - 1) % order + 1


def require_semigroup(s):
    rep = validate_semigroup(s)
    if not rep["ok"]:
        w = rep["commutativity"][0] if rep["commutativity"] else rep["associativity"][0]
        raise NotASemigroupError("table fails %s at %r" % (
            "commutativity" if rep["commutativity"] else "associativity", w),
            witness=list(w))
    return s


def _expand(s, c, elems):
    """S x g on the basis lambda_a e_i, a in elems, in flat order; brackets
    whose semigroup product leaves elems are cut.  The result is not
    re-checked: for Abelian S it satisfies Jacobi, whole or cut at 0_S
    (Izaurieta, Rodriguez and Salgado, J. Math. Phys. 47 (2006) 123512)."""
    inside = set(elems)
    m = len(elems)
    pos = {a: t for t, a in enumerate(elems)}
    # with the algebra index major, i < j puts (i, a) before (j, b) for
    # every a, b, so each stored pair of g yields stored pairs of S x g
    rows = {}
    for (i, j), row in c.rows.items():
        for a in elems:
            for b in elems:
                g = s.product(a, b)
                if g in inside:
                    rows[(i * m + pos[a], j * m + pos[b])] = [
                        (k * m + pos[g], v) for k, v in row]
    return StructureTensor(c.dim * m, rows)


def s_expand(s, c):
    """Expanded algebra: [E_(i,a), E_(j,b)] = C_ij^k E_(k, a*b)."""
    require_semigroup(s)
    require_lie(c)
    return _expand(s, c, range(1, s.order + 1))


def zero_reduce(s, c):
    """Algebra on the non-zero part of S x g; brackets through 0_S are cut.

    Basis elements lambda_alpha e_i with alpha != 0_S keep their relative
    flat order; the result has dimension n(N-1).
    """
    require_lie(c)
    require_semigroup(s)
    z = require_zero(s)
    return _expand(s, c, [a for a in range(1, s.order + 1) if a != z])


def _leaves_span(a, b, w):
    return NotASubalgebraError(
        "bracket of span basis vectors %d and %d leaves the span" % (a + 1, b + 1),
        witness={"pair": [a + 1, b + 1], "bracket": w})


def coordinate_brackets(c, idx):
    """Bracket of c on the coordinate span of e_k, k in idx (0-based,
    ascending), read off the stored rows: {(a, b): ((t, coeff), ...)} over
    positions in idx, nonzero brackets only.

    Raises NotASubalgebraError like extract_subalgebra, for the first pair
    of positions whose bracket leaves the span.
    """
    pos = {k: t for t, k in enumerate(idx)}
    rows = {}
    for a, b in combinations(range(len(idx)), 2):
        row = c.rows.get((idx[a], idx[b]), ())
        if any(k not in pos for k, _ in row):
            w = ["0"] * c.dim
            for k, q in row:
                w[k] = str(q)
            raise _leaves_span(a, b, w)
        if row:
            rows[(a, b)] = tuple((pos[k], q) for k, q in row)
    return rows


def _unit_indices(n, gens):
    """Ascending distinct indices k when every generator is a length-n
    vector of ints or Fractions equal to e_k, else None."""
    idx = set()
    for v in gens:
        if len(v) != n or not all(isinstance(x, (int, Fraction)) for x in v):
            return None
        nz = [k for k, x in enumerate(v) if x]
        if len(nz) != 1 or v[nz[0]] != 1:
            return None
        idx.add(nz[0])
    return sorted(idx)


def extract_subalgebra(c, span):
    """Bracket restricted to a closed span, in its reduced-echelon basis.

    span may be a Subspace or a list of generator vectors.  Raises when some
    bracket of basis vectors leaves the span (with the offending pair).  A
    span of unit vectors has those vectors, in index order, as its echelon
    basis, so its bracket is read off the stored rows.
    """
    if not isinstance(span, Subspace):
        gens = [list(v) for v in span]
        idx = _unit_indices(c.dim, gens)
        if idx is not None:
            return StructureTensor(len(idx), coordinate_brackets(c, idx))
        span = Subspace(c.dim, gens)
    basis = [list(v) for v in span.basis]
    m = len(basis)
    rows = {}
    for a in range(m):
        for b in range(a + 1, m):
            w = bracket(c, basis[a], basis[b])
            coords = span.coordinates_of(w)
            if coords is None:
                raise _leaves_span(a, b, [str(x) for x in w])
            rows[(a, b)] = enumerate(coords)
    return StructureTensor(m, rows)


def reduce_decomposition(c, checked, hatted):
    """Projected bracket on `checked` along `hatted`.

    Requires checked + hatted to be a direct-sum decomposition of the whole
    space and [checked, hatted] contained in hatted; under these the
    projected bracket satisfies Jacobi (asserted).
    """
    n = c.dim
    if not isinstance(checked, Subspace):
        checked = Subspace(n, checked)
    if not isinstance(hatted, Subspace):
        hatted = Subspace(n, hatted)
    all_rows = [list(v) for v in checked.basis] + [list(v) for v in hatted.basis]
    if checked.dim + hatted.dim != n or linalg.rank(all_rows) != n:
        raise NotReducibleError("checked and hatted do not decompose the space",
                                witness={"checked_dim": checked.dim,
                                         "hatted_dim": hatted.dim})
    for a, x in enumerate(checked.basis):
        for b, y in enumerate(hatted.basis):
            w = bracket(c, list(x), list(y))
            if not hatted.contains(w):
                raise NotReducibleError(
                    "[checked, hatted] is not contained in hatted",
                    witness={"checked_vector": a + 1, "hatted_vector": b + 1,
                             "bracket": [str(v) for v in w]})
    m = checked.dim
    # coordinates in the combined basis; first m coefficients are the
    # checked part of the projection
    combined_t = linalg.transpose(all_rows)
    rows = {}
    for a in range(m):
        for b in range(a + 1, m):
            w = bracket(c, list(checked.basis[a]), list(checked.basis[b]))
            coords = linalg.solve(combined_t, w)
            assert coords is not None
            rows[(a, b)] = enumerate(coords[:m])
    t = StructureTensor(m, rows)
    rep = validate_lie(t)
    assert rep["ok"], "projected bracket lost Jacobi: %r" % (rep["jacobi"][:1],)
    return t


# --- resonant decompositions --------------------------------------------


def _indices(xs, hi):
    """xs if it is a list of ints in 1..hi, else InputFormatError."""
    if not isinstance(xs, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= hi
            for x in xs):
        raise InputFormatError("resonance data %r is not a list of indices "
                               "in 1..%d" % (xs, hi))
    return xs


class ResonanceSpec:
    """Decomposition data: parts V_p of g given by index blocks, index
    subsets S_p of S, and for each pair (p,q) the target set i(p,q);
    optionally a per-p partition of S_p into a checked and a hatted part
    (for reductions).

    blocks maps p -> 1-based basis indices of g (V_p is the span of those
    e_i, the numbering of a witness's `blocks`); sets maps p -> iterable of
    1-based semigroup indices; targets maps (p,q) -> iterable of part keys,
    and must cover every ordered pair.  partitions, when given, maps p ->
    (checked_set, hatted_set).

    A decomposition into subspaces that are not spanned by basis vectors
    is coordinate in a basis adapted to it: take change_basis(g, P) with
    the rows of P running through V_1, V_2, ... in turn, and name the
    blocks of rows.
    """

    def __init__(self, blocks, sets, targets, partitions=None):
        self.keys = sorted(blocks)
        if sorted(sets) != self.keys:
            raise InputFormatError("blocks and sets must share the same keys")
        self.blocks = {p: tuple(blocks[p]) for p in self.keys}
        self.sets = {p: frozenset(sets[p]) for p in self.keys}
        self.targets = {}
        for p in self.keys:
            for q in self.keys:
                if (p, q) not in targets and (q, p) in targets:
                    self.targets[(p, q)] = frozenset(targets[(q, p)])
                elif (p, q) in targets:
                    self.targets[(p, q)] = frozenset(targets[(p, q)])
                else:
                    raise InputFormatError("no target set for pair (%r,%r)" % (p, q))
                if not self.targets[(p, q)] <= set(self.keys):
                    raise InputFormatError("target set of (%r,%r) names unknown parts" % (p, q))
        self.partitions = None
        if partitions is not None:
            self.partitions = {}
            for p in self.keys:
                if p not in partitions:
                    raise InputFormatError("partition missing for part %r" % (p,))
                chk, hat = partitions[p]
                chk, hat = frozenset(chk), frozenset(hat)
                if chk | hat != self.sets[p] or chk & hat:
                    raise InputFormatError("partition of part %r does not split S_p" % (p,))
                self.partitions[p] = (chk, hat)

    @classmethod
    def from_json(cls, meta, n, order):
        """The spec a resonant witness names, from the 1-based blocks, sets
        and "p,q" targets of to_json, for an n-dim g and a semigroup of the
        given order.  Malformed data raises InputFormatError."""
        try:
            blocks, sets = meta["blocks"], meta["sets"]
            targets = {}
            for key, val in meta["targets"].items():
                p, q = (int(x) for x in key.split(","))
                targets[(p, q)] = val
        except (TypeError, KeyError, ValueError, AttributeError):
            raise InputFormatError("malformed resonance data %r" % (meta,))
        if not isinstance(blocks, list) or not isinstance(sets, list) \
                or len(blocks) != len(sets):
            raise InputFormatError("resonance data needs one set per block")
        k = len(blocks)
        blocks = {p: _indices(bl, n) for p, bl in enumerate(blocks, 1)}
        for pq, val in targets.items():
            _indices(list(pq), k)
            _indices(val, k)
        return cls(blocks, {p: _indices(st, order) for p, st in enumerate(sets, 1)},
                   targets)

    def to_json(self):
        """The witness form: blocks and sorted sets in key order, and the
        targets keyed "p,q" by 1-based positions in that order.  Partitions
        are not part of it."""
        at = {p: t for t, p in enumerate(self.keys, 1)}
        return {"blocks": [list(self.blocks[p]) for p in self.keys],
                "sets": [sorted(self.sets[p]) for p in self.keys],
                "targets": {"%d,%d" % (at[p], at[q]):
                            sorted(at[r] for r in self.targets[(p, q)])
                            for p in self.keys for q in self.keys}}


def validate_resonance(s, c, rspec):
    """Check all resonance conditions; report with per-condition witnesses.

    The parts are index blocks, so the direct sum says the blocks, counted
    with repeats, are exactly 1..n, and the bracket condition that [e_i, e_j]
    for i in block p and j in block q is supported on the target blocks.
    """
    n, N = c.dim, s.order
    report = {"ok": True}

    for p in rspec.keys:
        for i in rspec.blocks[p]:
            if not 1 <= i <= n:
                raise InputFormatError("basis index %r out of range" % (i,))
    report["direct_sum"] = sorted(
        i for p in rspec.keys for i in rspec.blocks[p]) == list(range(1, n + 1))

    covered = set()
    for p in rspec.keys:
        for a in rspec.sets[p]:
            if not 1 <= a <= N:
                raise InputFormatError("semigroup index %r out of range" % (a,))
        covered |= rspec.sets[p]
    report["covering"] = covered == set(range(1, N + 1))

    bracket_bad = []
    for p in rspec.keys:
        for q in rspec.keys:
            allowed = set().union(*(rspec.blocks[r] for r in rspec.targets[(p, q)]))
            if any(k + 1 not in allowed
                   for i in rspec.blocks[p] for j in rspec.blocks[q]
                   for k, _ in c.rows.get((min(i, j) - 1, max(i, j) - 1), ())):
                bracket_bad.append((p, q))
    report["bracket_condition"] = bracket_bad

    product_bad = []
    for p in rspec.keys:
        for q in rspec.keys:
            target = rspec.targets[(p, q)]
            for a in sorted(rspec.sets[p]):
                for b in sorted(rspec.sets[q]):
                    g = s.product(a, b)
                    if any(g not in rspec.sets[r] for r in target):
                        product_bad.append((p, q, a, b))
    report["product_condition"] = product_bad

    partition_bad = []
    if rspec.partitions is not None:
        for p in rspec.keys:
            chk_p = rspec.partitions[p][0]
            for q in rspec.keys:
                hat_q = rspec.partitions[q][1]
                target = rspec.targets[(p, q)]
                for a in sorted(chk_p):
                    for b in sorted(hat_q):
                        g = s.product(a, b)
                        if any(g not in rspec.partitions[r][1] for r in target):
                            partition_bad.append((p, q, a, b))
    report["partition_condition"] = partition_bad

    report["ok"] = (report["direct_sum"] and report["covering"]
                    and not bracket_bad and not product_bad and not partition_bad)
    return report


def resonant_span(s, c, rspec):
    """Span of {lambda_a v : a in S_p, v in V_p} inside the expanded algebra,
    as its unit vectors in index order (its echelon basis, and the form of
    a witness span)."""
    d = c.dim * s.order
    cells = {flat_index(i, a, s.order) - 1 for p in rspec.keys
             for a in rspec.sets[p] for i in rspec.blocks[p]}
    return tuple(tuple(int(k == t) for k in range(d)) for t in sorted(cells))


def resonant_subalgebra(s, c, rspec):
    """The subalgebra of the expansion carried by a resonant decomposition."""
    rep = validate_resonance(s, c, rspec)
    if not rep["ok"]:
        for key in ("direct_sum", "covering"):
            if not rep[key]:
                raise NotResonantError("decomposition fails the %s condition" % key)
        for key in ("bracket_condition", "product_condition", "partition_condition"):
            if rep[key]:
                raise NotResonantError("decomposition fails the %s" % key,
                                       witness=list(rep[key][0]))
    expanded = s_expand(s, c)
    # closure is a theorem given the conditions above; extract_subalgebra
    # still verifies it exactly
    return extract_subalgebra(expanded, resonant_span(s, c, rspec))


def resonant_reduction(s, c, rspec):
    """Reduced algebra induced by a partitioned resonant decomposition.

    The hatted part is span{lambda_a v : a in the hatted half of S_p}, the
    checked part its complement inside the resonant span.
    """
    if rspec.partitions is None:
        raise InputFormatError("resonant reduction needs partitions")
    rep = validate_resonance(s, c, rspec)
    if not rep["ok"]:
        raise NotResonantError("decomposition fails resonance/partition checks")
    span = resonant_span(s, c, rspec)
    sub = extract_subalgebra(s_expand(s, c), span)
    hatted = {flat_index(i, a, s.order) - 1 for p in rspec.keys
              for a in rspec.partitions[p][1] for i in rspec.blocks[p]}
    units = [[int(t == k) for t in range(sub.dim)] for k in range(sub.dim)]
    return reduce_decomposition(
        sub, [u for u, v in zip(units, span) if v.index(1) not in hatted],
        [u for u, v in zip(units, span) if v.index(1) in hatted])


# --- span strings --------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\s*E(\d+)")


def parse_span(text, ambient):
    """Parse 'E1,E2-E3,2E4' into a list of coordinate vectors.

    Each comma-separated token is a signed rational combination of basis
    symbols E1..E<ambient>.
    """
    vecs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InputFormatError("empty span token")
        v = [Fraction(0)] * ambient
        pos = 0
        for m in _TERM_RE.finditer(token):
            if m.start() != pos:
                raise InputFormatError("cannot parse span token %r" % token)
            pos = m.end()
            sign = -1 if m.group(1) == "-" else 1
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            idx = int(m.group(3))
            if not 1 <= idx <= ambient:
                raise InputFormatError("basis symbol E%d out of range 1..%d"
                                       % (idx, ambient))
            v[idx - 1] += sign * coeff
        if pos != len(token):
            raise InputFormatError("cannot parse span token %r" % token)
        vecs.append(v)
    return vecs
