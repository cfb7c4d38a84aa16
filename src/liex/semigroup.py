"""Finite Abelian semigroups given by 1-based multiplication tables.

A table of order N is an N x N array with entries in 1..N; table[a][b] is the
index of the product of elements a and b (all indices 1-based, matching the
usual lambda_1..lambda_N naming).  Commutativity and associativity are NOT
enforced by the constructor; validate_semigroup produces a full witness
report so broken tables can be inspected.
"""

from itertools import permutations

from .errors import InputFormatError, NoZeroElementError


class BoundExceededError(InputFormatError):
    """Requested enumeration order above the configured bound."""

    code = "bound_exceeded"


DEFAULT_MAX_ORDER = 4


def _relabel(table, perm):
    """The plain tuple table of SemigroupTable.relabel.

    A perm that is not a permutation leaves 0 entries, which the
    SemigroupTable constructor refuses.
    """
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        out = new[perm[a] - 1]
        for b, x in enumerate(row):
            out[perm[b] - 1] = perm[x - 1]
    return tuple(map(tuple, new))


def _orbit(table):
    """Every relabeling of a tuple table, as a set of tuple tables."""
    return {_relabel(table, perm)
            for perm in permutations(range(1, len(table) + 1))}


def _echo(x):
    """A refused table entry as printable JSON: values JSON cannot hold
    exactly, floats among them, become their repr."""
    if isinstance(x, list):
        return [_echo(v) for v in x]
    if isinstance(x, dict):
        return {k: _echo(v) for k, v in x.items()}
    return x if x is None or type(x) in (str, int, bool) else repr(x)


class SemigroupTable:
    __slots__ = ("order", "table")

    def __init__(self, table):
        if not isinstance(table, (list, tuple)):
            raise InputFormatError("table must be a list of rows")
        n = len(table)
        if n == 0:
            raise InputFormatError("empty multiplication table")
        tab = []
        for row in table:
            if not isinstance(row, (list, tuple)):
                raise InputFormatError("table rows must be lists")
            if len(row) != n:
                raise InputFormatError("table is not square")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool) or not (1 <= x <= n):
                    raise InputFormatError(
                        "table entries must be integers in 1..%d" % n,
                        witness={"entry": _echo(x)})
            tab.append(tuple(row))
        self.order = n
        self.table = tuple(tab)

    def product(self, a, b):
        """Index of the product, all 1-based."""
        return self.table[a - 1][b - 1]

    def __eq__(self, other):
        return isinstance(other, SemigroupTable) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return "SemigroupTable(%r)" % [list(r) for r in self.table]

    def relabel(self, perm):
        """Apply the relabeling a -> perm[a-1] (perm is 1-based values).

        New table satisfies new[perm(a)][perm(b)] = perm(old[a][b]).
        """
        return SemigroupTable(_relabel(self.table, perm))

    def to_json(self):
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, obj):
        try:
            table = obj["table"]
        except (TypeError, KeyError):
            raise InputFormatError("semigroup JSON needs a 'table' field")
        st = cls(table)
        if "order" in obj and isinstance(obj["order"], bool):
            raise InputFormatError("bad order %r" % (obj["order"],))
        if "order" in obj and obj["order"] != st.order:
            raise InputFormatError("declared order %r does not match table size %d"
                                   % (obj["order"], st.order))
        return st


def validate_semigroup(s):
    """Full validation report.

    Returns {"ok": bool, "commutativity": [(a,b)...], "associativity":
    [(a,b,c)...]} listing every violated pair/triple (1-based).
    """
    n = s.order
    t = s.table
    comm = []
    for a in range(n):
        for b in range(a + 1, n):
            if t[a][b] != t[b][a]:
                comm.append((a + 1, b + 1))
    assoc = []
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab - 1][c] != t[a][t[b][c] - 1]:
                    assoc.append((a + 1, b + 1, c + 1))
    return {"ok": not comm and not assoc,
            "commutativity": comm,
            "associativity": assoc}


def zero_element(s):
    """1-based index of the absorbing element, or None.

    A zero satisfies a*z = z for all a.  At most one can exist: z = z*z' = z'.
    """
    n = s.order
    found = None
    for z in range(1, n + 1):
        if all(s.product(a, z) == z and s.product(z, a) == z
               for a in range(1, n + 1)):
            assert found is None, "two distinct zeros: %d, %d" % (found, z)
            found = z
    return found


def require_zero(s):
    z = zero_element(s)
    if z is None:
        raise NoZeroElementError("semigroup has no absorbing element")
    return z


def canonical_form(s):
    """Lexicographically least table over all relabelings.

    Deterministic representative of the isomorphism class; idempotent.
    """
    return SemigroupTable(min(_orbit(s.table)))


def semigroups_isomorphic(a, b):
    """Relabeling permutation taking a to b, or None.

    Returned value is a tuple p with p[i-1] = image of element i (1-based).
    """
    if a.order != b.order:
        return None
    for perm in permutations(range(1, a.order + 1)):
        if _relabel(a.table, perm) == b.table:
            return perm
    return None


def enumerate_abelian_semigroups(order, up_to_isomorphism=True,
                                 max_order=DEFAULT_MAX_ORDER):
    """All Abelian semigroup tables of the given order, sorted.

    A DFS fills the upper triangle cell by cell in row-major order, trying
    the values 1..n in turn.  The table is kept symmetric, so the filled
    cells are always a row-major prefix of the full table and the leaves
    come out in lexicographic order.  After each assignment it checks
    associativity only on the triples (a, b, c) that one of their four
    lookups ab, bc, (ab)c, a(bc) ties to the new cell: any other triple
    with all four lookups assigned was checked when its last cell was
    filled, so every leaf is commutative and associative and is returned
    unchecked (tests check every table of orders 1-5 with
    validate_semigroup).

    With up_to_isomorphism, one representative per relabeling orbit, the
    canonical form, by lex-leader pruning (orderly generation; McKay,
    J. Algorithms 26 (1998) 306).  A relabeling p of a partial table T is
    known cell by cell in row-major order as long as the preimage cells are
    filled.  If p(T) is smaller than T at the first cell where they differ,
    no completion of T is the least of its orbit and the branch is cut; if
    it is larger, p cuts nothing below.  The leaves are then exactly the
    canonical forms, each met once, and each is checked against
    canonical_form once.
    """
    if order < 1:
        raise InputFormatError("order must be positive")
    if order > max_order:
        raise BoundExceededError(
            "order %d exceeds the enumeration bound %d" % (order, max_order))
    n = order
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    step = {}
    for k, (a, b) in enumerate(cells):
        step[a, b] = step[b, a] = k
    t = [[0] * n for _ in range(n)]  # 0 = unassigned
    # filled[k]: each ordered pair (p, q) whose cell is filled once step k
    # is, as (row p, q, row q)
    filled = [[(t[p], q, t[q]) for p in range(n) for q in range(n)
               if step[p, q] <= k] for k in range(len(cells))]

    def assoc_ok_at(k, v):
        # The table stays symmetric, so (x, y, z) and (z, y, x) are one
        # check: their two sides swap.  Triples with the new cell (a, b)
        # as their ab or bc lookup are then (a, b, z) and (b, a, z), both
        # with (ab)z = vz on the left.  Triples with it as their (ab)c or
        # a(bc) lookup are (p, q, b) with pq = a and (p, q, a) with pq = b,
        # both with v on the left, and need pq filled.  A side that meets
        # an empty cell waits for a later step.
        a, b = cells[k]
        ra, rb, rv = t[a], t[b], t[v - 1]
        for z in range(n):
            left = rv[z]
            if left:
                bz = rb[z]
                if bz:
                    right = ra[bz - 1]
                    if right and right != left:
                        return False
                az = ra[z]
                if az:
                    right = rb[az - 1]
                    if right and right != left:
                        return False
        a1, b1 = a + 1, b + 1
        for rp, q, rq in filled[k]:
            w = rp[q]
            if w == a1:
                yz = rq[b]
            elif w == b1:
                yz = rq[a]
            else:
                continue
            if yz:
                right = rp[yz - 1]
                if right and right != v:
                    return False
        return True

    def lex_step(k, live):
        # live: (pm, walk, i) per relabeling p not yet known to exceed T on
        # every completion, equal to T on the first i cells of walk.  pm
        # maps a 1-based value to its image, pm[0] = 0.  Below the diagonal
        # both tables mirror cells already compared.  None prunes.
        kept = []
        for pm, walk, i in live:
            for i in range(i, len(walk)):
                need, row, b, prow, pb = walk[i]
                if need > k:
                    kept.append((pm, walk, i))
                    break
                x = pm[prow[pb]]
                y = row[b]
                if x != y:
                    if x < y:
                        return None
                    break
            else:
                kept.append((pm, walk, len(walk)))
        return kept

    # Labelled, no relabeling is compared and lex_step prunes nothing.
    live = []
    if up_to_isomorphism:
        for perm in permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            inv = [0] * n
            for x, px in enumerate(perm):
                inv[px] = x
            # p(T) at cell (a, b) is p(T[inv a][inv b])
            walk = tuple((max(k, step[inv[a], inv[b]]), t[a], b,
                          t[inv[a]], inv[b])
                         for k, (a, b) in enumerate(cells))
            live.append(((0,) + tuple(x + 1 for x in perm), walk, 0))

    out = []
    last = len(cells) - 1

    def fill(k, live):
        a, b = cells[k]
        ra, rb = t[a], t[b]
        for v in range(1, n + 1):
            ra[b] = rb[a] = v
            if not assoc_ok_at(k, v):
                continue
            kept = lex_step(k, live)
            if kept is None:
                continue
            if k == last:
                out.append(SemigroupTable(t))
            else:
                fill(k + 1, kept)
        ra[b] = rb[a] = 0

    fill(0, live)
    for s in out:
        assert not up_to_isomorphism or canonical_form(s) == s
    return out


# Built-ins.  S3's printed relations (zero lambda_1, lambda_2*lambda_2 =
# lambda_1, lambda_2*lambda_3 = lambda_2) force lambda_3*lambda_3 = lambda_3:
# any other value breaks associativity on (2,3,3).
TRIVIAL = SemigroupTable([[1]])
S2 = SemigroupTable([[2, 2], [2, 2]])
S3 = SemigroupTable([[1, 1, 1], [1, 1, 2], [1, 2, 3]])

BUILTIN_SEMIGROUPS = {"S2": S2, "S3": S3}
