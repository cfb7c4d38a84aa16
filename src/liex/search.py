"""Connection search: which classes arise from which by expansion plus
subalgebra extraction, zero reduction, or resonant decomposition.

The span search space is deliberately bounded: candidate subalgebras are
spanned by subsets of the ambient basis vectors, the shape every worked
extraction takes (a span picks out semigroup copies of original basis
vectors).  Closure then reduces to a support check on the pair brackets.
Negative results mean exactly "no witness in this bounded space", and
every result carries the count of candidates examined so the claim is
reproducible.

Resonant mode filters the same scan of the expansion: a closed coordinate
triple is a resonant subalgebra iff its semigroup indices cover S (see
_coarsest_decomposition), and its witness names the coarsest decomposition.
Its `space` count is the closed-form size of the decomposition space, the
block partitions of the source basis times one subset of S per block.

The same few coefficient blocks show up in many spans and across
searches, so each distinct block is built, ranked and classified once per
process: the scan keys blocks by their integer numerators in one module
table, and classification is cached on the shared tensor objects.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import linalg
from .errors import (InputFormatError, LiexError, ParameterNotRationalError,
                     RationalFormError)
from .expansion import (ResonanceSpec, _expand, extract_subalgebra,
                        resonant_span, s_expand, split_index, validate_resonance,
                        zero_reduce)
from .identify import identify3
from .liealg import (StructureTensor, _numerators, catalog, change_basis,
                     parse_label, require_lie, resolve_algebra)
from .semigroup import (BUILTIN_SEMIGROUPS, SemigroupTable, canonical_form,
                        enumerate_abelian_semigroups, zero_element)


@dataclass(frozen=True)
class Witness:
    """One replayable connection.

    span generators are coordinates in the ambient algebra of the given mode
    (the expansion for 'subalgebra' and 'resonant', the reduced algebra for
    'zero_reduce').  basis_change maps the tensor extracted from the span
    (in its reduced-echelon basis) onto the canonical catalog form.
    """
    semigroup: object
    semigroup_name: object      # "S2"/"S3" when isomorphic to a built-in
    mode: str
    span: object                # tuple of coordinate tuples
    resonance: object           # ResonanceSpec.to_json() form, or None
    label: str
    param: object
    basis_change: tuple

    def to_json(self, shared=None):
        """JSON form.  Calls that pass one `shared` dict build each
        semigroup and basis change object, and each span vector value,
        once and reuse that JSON object, so treat the result as read-only."""
        if shared is None:
            shared = {}
        d = {"semigroup": _part(shared, id(self.semigroup), self.semigroup,
                                SemigroupTable.to_json),
             "mode": self.mode, "label": self.label}
        if self.semigroup_name:
            d["semigroup_name"] = self.semigroup_name
        if self.param is not None:
            d["param"] = str(self.param)
        if self.span is not None:
            d["span"] = [_part(shared, v, v, _strings) for v in self.span]
        if self.resonance is not None:
            d["resonance"] = self.resonance
        d["basis_change"] = _part(shared, id(self.basis_change), self.basis_change,
                                  lambda m: [_strings(row) for row in m])
        return d


def _strings(v):
    return [str(x) for x in v]


def _part(shared, key, obj, build):
    """build(obj), made once per key.  Semigroups and basis changes are
    keyed by id, since the inventory and the classifier cache hand out the
    same objects again, and the stored obj keeps its id from being reused.
    Span vectors, tuples made per scan, are keyed by value."""
    got = shared.get(key)
    if got is None:
        got = shared[key] = (obj, build(obj))
    return got[1]


@dataclass(frozen=True)
class SearchResult:
    witnesses: tuple
    space: dict                 # enumeration counts, per mode
    max_order: int
    modes: tuple

    def found(self):
        return bool(self.witnesses)

    def to_json(self):
        shared = {}
        return {"witnesses": [w.to_json(shared) for w in self.witnesses],
                "space": self.space, "max_order": self.max_order,
                "modes": list(self.modes), "found": self.found()}


@lru_cache(maxsize=None)
def semigroup_inventory(max_order):
    """One semigroup per isomorphism class up to max_order, with built-in
    relabelings substituted so witnesses come out in the familiar
    coordinates.  max_order is also the enumeration bound, so callers cap
    the order themselves (the CLI through LIEX_MAX_ORDER).  The
    enumeration builds only commutative, associative tables, so searches
    expand them unchecked."""
    # the enumerated classes are canonical forms, so s is isomorphic to a
    # built-in b iff s == canonical_form(b)
    builtin = {canonical_form(b): (b, name)
               for name, b in BUILTIN_SEMIGROUPS.items()}
    out = []
    for order in range(1, max_order + 1):
        for s in enumerate_abelian_semigroups(order, up_to_isomorphism=True,
                                              max_order=max_order):
            s, name = builtin.get(s, (s, None))
            out.append((s, name))
    return tuple(out)


# derived-algebra dimension per class, used to prefilter spans before the
# full classification runs
DD_BY_LABEL = {"3A1": 0, "A2.1+A1": 1, "A3.1": 1, "A3.2": 2, "A3.3": 2,
               "A3.4": 2, "A3.5": 2, "sl2R": 3, "so3": 3}

@lru_cache(maxsize=None)
def _identify_or_none(c):
    try:
        return identify3(c)
    except (ParameterNotRationalError, RationalFormError):
        return None


def clear_caches():
    """Drop the inventory, scan, block and classification caches (honest
    cold timings)."""
    semigroup_inventory.cache_clear()
    scan_3dim_subalgebras.cache_clear()
    _BLOCKS.clear()
    _identify_or_none.cache_clear()


# The coefficient blocks of the closed coordinate triples met so far in the
# process, as (derived_dim, tensor).  A scan looks a block up by its integer
# key: the ambient's common denominator and the numerators of the rows
# [e_0, e_1], [e_0, e_2], [e_1, e_2].  A new key is also looked up by its
# tensor, so equal blocks are one object whatever ambient they come from.
_BLOCKS = {}


def _block(key):
    """The (derived_dim, tensor) of a block key missing from _BLOCKS."""
    den, *rows = key
    t = StructureTensor(3, {pq: [(k, Fraction(x, den)) for k, x in row]
                            for pq, row in zip(((0, 1), (0, 2), (1, 2)), rows)})
    block = _BLOCKS.get(t)
    if block is None:
        dense = [[dict(row).get(k, 0) for k in range(3)] for row in rows]
        block = _BLOCKS[t] = (linalg.rank(dense), t)
    _BLOCKS[key] = block
    return block


@lru_cache(maxsize=256)
def scan_3dim_subalgebras(ambient):
    """All 3-dim bracket-closed spans of triples of ambient basis vectors.

    Such a span is a subalgebra exactly when each of its three pair
    brackets is supported on the triple's own coordinates, and the
    restricted tensor is then read straight off the ambient structure
    constants.  Returns (records, triples_examined); each record is
    (generators, derived_dim, tensor) with generators the unit coordinate
    vectors and the tensor written in that basis (which is also the span's
    echelon basis, so classifier witnesses apply to it directly).

    Triples are taken pair first: the bracket of e_a, e_b (a < b) may reach
    at most one index c outside the pair, which is then the only third
    index tried, and the other two pairs are checked by bitmask.  Records
    come in combinations order and every triple counts as examined.  Each
    distinct block is built, ranked and classified once per process (see
    _BLOCKS), however many triples, ambients and searches carry it.
    """
    d = ambient.dim
    den, num = _numerators(ambient)
    units = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    supp = [[0] * d for _ in range(d)]
    # each stored row in the local positions of the three roles its pair
    # can play in a triple: third index above, between or below the pair
    up, mid, low = ([[()] * d for _ in range(d)] for _ in range(3))
    for (i, j), row in num.items():
        supp[i][j] = sum(1 << k for k, _ in row)
        up[i][j] = tuple((0 if k == i else 1 if k == j else 2, x) for k, x in row)
        mid[i][j] = tuple((0 if k == i else 2 if k == j else 1, x) for k, x in row)
        low[i][j] = tuple((1 if k == i else 2 if k == j else 0, x) for k, x in row)
    records = []
    for a in range(d):
        for b in range(a + 1, d):
            out = supp[a][b] & ~((1 << a) | (1 << b))
            if out & (out - 1):
                continue                    # reaches two indices outside
            if out:
                c = out.bit_length() - 1
                if c < b:
                    continue
                thirds = (c,)
            else:
                thirds = range(b + 1, d)
            ab = up[a][b]
            for c in thirds:
                if (supp[a][c] | supp[b][c]) & ~((1 << a) | (1 << b) | (1 << c)):
                    continue
                key = (den, ab, mid[a][c], low[b][c])
                block = _BLOCKS.get(key) or _block(key)
                records.append(((units[a], units[b], units[c]),) + block)
    return tuple(records), comb(d, 3)


def _decompositions(n, order):
    """Size of the resonant decomposition space of an n-dim algebra and a
    semigroup S of the given order: a block partition of the basis and one
    subset of S per block, sum_k S(n, k) (2^order)^k with S(n, k) the
    Stirling numbers of the second kind."""
    row = [1]                           # S(0, k) for k = 0
    for m in range(1, n + 1):
        row = [(k * row[k] if k < m else 0) + (row[k - 1] if k else 0)
               for k in range(m + 1)]
    return sum(sk << (order * k) for k, sk in enumerate(row))


def _coarsest_decomposition(s, c, span):
    """The coarsest ResonanceSpec whose resonant subalgebra is a closed
    coordinate span, or None when the span is not a resonant subalgebra.

    Let A_i be the set of alpha with e_i x lambda_alpha in the span.  The
    span is closed iff A_i A_j lies in A_k whenever C_ij^k != 0, which is
    the product condition for blocks of rows with equal A_i; so it is the
    resonant subalgebra of a decomposition iff the A_i cover S.  The
    coarsest such decomposition is returned: blocks are the classes of
    rows with equal A_i, targets the minimal ones the brackets allow.
    """
    n, N = c.dim, s.order
    sets = [set() for _ in range(n)]
    for v in span:
        i, alpha = split_index(v.index(1) + 1, N)
        sets[i - 1].add(alpha)
    if set().union(*sets) != set(range(1, N + 1)):
        return None
    classes = {}
    for i, a in enumerate(sets, 1):
        classes.setdefault(frozenset(a), []).append(i)
    blocks = dict(enumerate(sorted(classes.values()), 1))
    block_of = {i: p for p, bl in blocks.items() for i in bl}
    targets = {(p, q): {block_of[k + 1] for i in bp for j in bq
                        for k, _ in c.rows.get((min(i, j) - 1, max(i, j) - 1), ())}
               for p, bp in blocks.items() for q, bq in blocks.items()}
    return ResonanceSpec(blocks, {p: sets[bl[0] - 1] for p, bl in blocks.items()},
                         targets)


# A theorem, not a cut-off: a 3-dim coordinate span holds three vectors
# e_i x lambda_alpha, so its A_i cover at most three elements of S, and no
# semigroup of order 4 or more has a 3-dim coordinate resonant subalgebra.
RESONANT_ORDER_BOUND = 3


def _check_modes(modes):
    for m in modes:
        if m not in ("subalgebra", "zero_reduce", "resonant"):
            raise InputFormatError("unknown search mode %r" % (m,))


def _target_key(label):
    """The (label, param) key identify3 gives the 3-dim class `label`."""
    tname, tparams = parse_label(label)
    if catalog(tname, **tparams).dim != 3:
        raise InputFormatError("search targets must be 3-dim classes")
    return (tname, tparams.get("a", tparams.get("b")))


def _search(source, max_order, modes, wants):
    """One pass over the semigroup inventory for every class in `wants`, a
    set of (label, param) keys.

    Each (source, semigroup) pair is expanded at most once, and the
    subalgebra and resonant modes share that expansion and its scan.  Returns the
    witnesses in inventory order (semigroup, then mode, then span) and the
    space counts, which do not depend on `wants`.
    """
    dds = {DD_BY_LABEL[name] for name, _ in wants}
    require_lie(source)
    witnesses = []
    space = {"semigroups": 0}
    for m in modes:
        space["%s_candidates" % m] = 0

    def record(sub, s, sname, mode, span, spec):
        ident = _identify_or_none(sub)
        if ident is not None and (ident.label, ident.param) in wants:
            meta = None if spec is None else spec.to_json()
            witnesses.append(Witness(s, sname, mode, span, meta,
                                     ident.label, ident.param, ident.witness))

    def match_spans(ambient, s, sname, mode):
        records, examined = scan_3dim_subalgebras(ambient)
        space["%s_candidates" % mode] += examined
        for gens, dd, gt in records:
            if dd in dds:
                record(gt, s, sname, mode, gens, None)

    # the source is checked once above and the inventory holds semigroups
    # by construction, so expansions skip s_expand's and zero_reduce's
    # input checks
    for s, sname in semigroup_inventory(max_order):
        space["semigroups"] += 1
        elems = range(1, s.order + 1)
        expanded = None
        if "subalgebra" in modes:
            expanded = _expand(s, source, elems)
            match_spans(expanded, s, sname, "subalgebra")
        if "zero_reduce" in modes and (z := zero_element(s)) is not None:
            reduced = _expand(s, source, [a for a in elems if a != z])
            if reduced.dim >= 3:
                match_spans(reduced, s, sname, "zero_reduce")
        if "resonant" in modes and s.order <= RESONANT_ORDER_BOUND:
            space["resonant_candidates"] += _decompositions(source.dim, s.order)
            if expanded is None:
                expanded = _expand(s, source, elems)
            for gens, dd, gt in scan_3dim_subalgebras(expanded)[0]:
                if dd in dds:
                    spec = _coarsest_decomposition(s, source, gens)
                    if spec is not None:
                        record(gt, s, sname, "resonant", gens, spec)
    return witnesses, space


def find_connection(source, target_label, max_order=3,
                    modes=("subalgebra",), pre_change=None):
    """Witnesses taking `source` to the class `target_label`.

    Scans every Abelian semigroup up to isomorphism within max_order.  An
    empty result reports the exact number of candidates examined.
    """
    _check_modes(modes)
    want = _target_key(target_label)
    if pre_change is not None:
        source = change_basis(source, pre_change)
    witnesses, space = _search(source, max_order, modes, {want})
    return SearchResult(tuple(witnesses), space, max_order, tuple(modes))


def replay(source, witness):
    """Re-run a witness pipeline from scratch; True iff it checks out.

    A resonant witness must also name a decomposition that passes every
    resonance condition and whose resonant span is the witness's span.
    """
    s = witness.semigroup
    if witness.span is None:
        return False
    params = {} if witness.param is None else (
        {"a" if witness.label == "A3.4" else "b": witness.param})
    try:
        if witness.mode in ("subalgebra", "resonant"):
            ambient = s_expand(s, source)
        elif witness.mode == "zero_reduce":
            ambient = zero_reduce(s, source)
        else:
            return False
        if witness.mode == "resonant":
            if witness.resonance is None:
                return False
            spec = ResonanceSpec.from_json(witness.resonance, source.dim, s.order)
            if not validate_resonance(s, source, spec)["ok"]:
                return False
            if resonant_span(s, source, spec) != tuple(map(tuple, witness.span)):
                return False
        sub = extract_subalgebra(ambient, [list(v) for v in witness.span])
        expected = catalog(witness.label, **params)
        return change_basis(sub, [list(r) for r in witness.basis_change]) == expected
    except LiexError:
        return False


def connectivity_matrix(labels, max_order=2, modes=("subalgebra",)):
    """Directed found/not-found report over ordered label pairs.

    One search pass per source answers every target.  Each found edge
    carries its first witness.  Self-loops come out of the order-1
    semigroup (the expansion is the algebra itself).
    """
    tensors = {lab: resolve_algebra(lab) for lab in labels}
    _check_modes(modes)
    keys = {lab: _target_key(lab) for lab in labels}
    wants = set(keys.values())
    edges = {}
    shared = {}
    for src in labels:
        witnesses, space = _search(tensors[src], max_order, modes, wants)
        first = {}
        for w in witnesses:
            first.setdefault((w.label, w.param), w)
        for dst in labels:
            w = first.get(keys[dst])
            entry = {"found": w is not None, "space": dict(space)}
            if w is not None:
                entry["witness"] = w.to_json(shared)
            edges[(src, dst)] = entry
    return {"labels": list(labels), "max_order": max_order,
            "modes": list(modes), "edges": edges}


def connectivity_to_json(report):
    return {"labels": report["labels"], "max_order": report["max_order"],
            "modes": report["modes"],
            "edges": [{"from": a, "to": b, **entry}
                      for (a, b), entry in sorted(report["edges"].items())]}


def connectivity_to_dot(report):
    """DOT digraph of the found edges; arrow labels name the semigroup and
    mode of the first witness."""
    lines = ["digraph connections {"]
    for lab in report["labels"]:
        lines.append('  "%s";' % lab)
    for (a, b), entry in sorted(report["edges"].items()):
        if not entry["found"]:
            continue
        if a == b:
            continue  # self-loops by the trivial semigroup clutter the picture
        w = entry["witness"]
        tag = w.get("semigroup_name") or "order %d" % w["semigroup"]["order"]
        lines.append('  "%s" -> "%s" [label="%s/%s"];' % (a, b, tag, w["mode"]))
    lines.append("}")
    return "\n".join(lines)
