"""The integer kernels under classification and replay, against the Fraction
loops they replaced.

Each reference below is the earlier implementation, kept here verbatim in
substance: change_basis as a Fraction inverse and a Fraction bilinear loop,
the split-frame sweep as an iproduct filter with a Fraction perfect-square
test, the so3 frame from dense bilinear forms of B = -K/2 with a Fraction
Gram reduction and a sup-norm cube sweep filtered point by point,
coordinate extraction through the Subspace path, [g, g] as the span of all
n^2 dense brackets, the span scan as extract_subalgebra on every closed
triple, validate_resonance on Subspace parts, contraction limits on a
dense tensor of reduced Laurent fractions, and the Killing form from dense
ad matrices.  The kernels must agree with them exactly.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, islice, product as iproduct
from math import gcd

import pytest

from liex import identify, linalg, search
from liex.errors import InputFormatError, LiexError, RationalFormError
from liex.cli import ALL3_LABELS
from liex.contraction import (Divergent, LaurentBasisFamily, LaurentPoly,
                              _det_minor, limit, transform_parametric)
from liex.expansion import (ResonanceSpec, extract_subalgebra, s_expand,
                            validate_resonance, zero_reduce)
from liex.identify import (DEFINITE_SEARCH_BUDGET, FRAME_SEARCH_LIMIT,
                           _definite_walk, _primitive_vectors, _two_squares,
                           identify3)
from liex.liealg import (StructureTensor, Subspace, _numerators, ad_matrix,
                         bracket, change_basis, catalog, derived_subalgebra,
                         full_space, killing_form, resolve_algebra,
                         span_of_brackets, validate_lie)
from liex.search import scan_3dim_subalgebras, semigroup_inventory
from liex.semigroup import S3, TRIVIAL, zero_element
from support import rand_invertible

FRACTION_POOL = [F(n, d) for n in range(-4, 5) for d in (1, 2, 3, 5, 7)]


def random_tensor(rng, n, density=0.5):
    """Random antisymmetric tensor with non-integer coefficients (not Lie)."""
    rows = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[(i, j)] = [(k, rng.choice(FRACTION_POOL)) for k in range(n)
                                if rng.random() < density]
    return StructureTensor(n, rows)


def reference_change_basis(c, u):
    """The Fraction loop: invert u by rref, transform every pair densely."""
    n = c.dim
    if len(u) != n or any(len(row) != n for row in u):
        raise InputFormatError("basis change must be %d x %d" % (n, n))
    m = [[linalg.frac(x) for x in row] for row in u]
    inv = linalg.inverse(m)
    if inv is None:
        raise InputFormatError("basis change matrix is singular")
    rows = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = [F(0)] * n
            for (p, q), row in c.rows.items():
                f = m[i][p] * m[j][q] - m[i][q] * m[j][p]
                for r, x in row:
                    v[r] += f * x
            rows[(i, j)] = enumerate([sum((v[r] * inv[r][k] for r in range(n)), F(0))
                                      for k in range(n)])
    return StructureTensor(n, rows)


def outcome(fn, *args):
    try:
        return fn(*args)
    except LiexError as e:
        return type(e).__name__, str(e), e.witness


def test_adjugate_matches_det_and_inverse():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.choice((1, 2, 3, 4, 6))
        m = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(n)]
        d, adj = linalg.adjugate(m)
        assert d == linalg.det(m)
        if d:
            assert [[F(x, d) for x in row] for row in adj] == linalg.inverse(m)
        else:
            assert adj is None


def test_change_basis_matches_fraction_loop():
    rng = random.Random(1903)
    for n in (3, 4, 7):
        for _ in range(30 if n < 7 else 8):
            c = random_tensor(rng, n)
            u = rand_invertible(rng, n) if n < 7 else [
                [rng.choice(FRACTION_POOL) for _ in range(n)] for _ in range(n)]
            got = outcome(change_basis, c, u)
            assert got == outcome(reference_change_basis, c, u), (n, u)
            if isinstance(got, StructureTensor):
                assert got.to_json() == reference_change_basis(c, u).to_json()


def test_change_basis_refusals_match_fraction_loop():
    rng = random.Random(1904)
    c = random_tensor(rng, 3)
    singular = [[F(1, 2), F(1, 3), F(0)], [F(1), F(2, 3), F(0)], [F(2), F(5), F(7)]]
    for u in (singular, [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]],
              [[1, 0, 0], [0, 1], [0, 0, 1]], [[0] * 3] * 3):
        with pytest.raises(InputFormatError) as got:
            change_basis(c, u)
        with pytest.raises(InputFormatError) as ref:
            reference_change_basis(c, u)
        assert str(got.value) == str(ref.value)
    with pytest.raises(TypeError):
        change_basis(c, [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])


def reference_primitive_vectors(dim, limit):
    """The iproduct filter over each whole (2r+1)^dim cube."""
    for r in range(1, limit + 1):
        for v in iproduct(range(-r, r + 1), repeat=dim):
            if max(abs(x) for x in v) != r:
                continue
            if next((x for x in v if x), 0) <= 0:
                continue
            if gcd(*v) != 1:
                continue
            yield v


def test_primitive_vectors_match_iproduct_filter():
    got = list(_primitive_vectors(3, FRAME_SEARCH_LIMIT))
    assert len(got) == 48385
    assert got == list(reference_primitive_vectors(3, FRAME_SEARCH_LIMIT))
    for dim, limit in ((1, 4), (2, 7), (4, 4)):
        assert list(_primitive_vectors(dim, limit)) == list(
            reference_primitive_vectors(dim, limit))


def reference_split_vector(c):
    """First primitive x with K(x, x)/2 a nonzero rational square, tested on
    Fractions, or None within FRAME_SEARCH_LIMIT.  The sweep order is the
    kernel's, which test_primitive_vectors_match_iproduct_filter pins."""
    K = killing_form(c)["matrix"]
    half = [[K[i][j] / (2 if i == j else 1) for j in range(3)] for i in range(3)]
    for x in _primitive_vectors(3, FRAME_SEARCH_LIMIT):
        ok, root = linalg.is_perfect_square(sum(
            half[i][j] * (x[i] * x[j]) for i in range(3) for j in range(i, 3)))
        if ok and root:
            return [F(t) / root for t in x]
    return None


def so_q(q1, q2, q3):
    return StructureTensor.from_brackets(
        3, {(1, 2): {3: -q1}, (1, 3): {2: q2}, (2, 3): {1: -q3}})


def test_split_sweep_matches_fraction_loop():
    # seeded sl2R and indefinite so_q inputs under random basis changes; the
    # first split vector fixes the witness's second row, h.  The seed draws
    # one nonsplit so_q among six (so_q(3, 5, -1)): the reference needs a
    # full Fraction sweep of 48,385 vectors to refuse it, about 1.5 s.
    rng = random.Random(1908)
    inputs = [change_basis(catalog("sl2R"), rand_invertible(rng)) for _ in range(6)]
    inputs += [change_basis(so_q(rng.randint(1, 7), rng.randint(1, 7),
                                 -rng.randint(1, 7)), rand_invertible(rng))
               for _ in range(6)]
    refused = 0
    for d in inputs:
        ref = reference_split_vector(d)
        if ref is None:
            refused += 1
            with pytest.raises(RationalFormError) as ei:
                identify3(d)
            assert ei.value.witness == {"bound": FRAME_SEARCH_LIMIT}
        else:
            r = identify3(d)
            assert r.label == "sl2R"
            assert list(r.witness[1]) == ref
    assert refused == 1


def reference_reduce_gram(B):
    """Greedy pairwise Gram reduction of a positive definite Fraction
    matrix, recomputing T B T^t by Fraction products after every step."""
    n = len(B)
    T = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def gram():
        return linalg.mat_mul(linalg.mat_mul(T, B), linalg.transpose(T))

    A = gram()
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or not A[j][j]:
                    continue
                t = round(A[i][j] / A[j][j])
                if not t:
                    continue
                new_norm = A[i][i] - 2 * t * A[i][j] + t * t * A[j][j]
                if new_norm < A[i][i]:
                    T[i] = [a - t * b for a, b in zip(T[i], T[j])]
                    A = gram()
                    changed = True
    order = sorted(range(n), key=lambda i: A[i][i])
    return [T[i] for i in order]


def reference_integer_form(A):
    D, M = linalg.integer_rows(A)
    return D, (M[0][0], M[1][1], M[2][2], 2 * M[0][1], 2 * M[0][2], 2 * M[1][2])


def reference_cube_shell(r):
    """Sup-norm shell r of the (2r+1)^3 cube, three filters per point."""
    for x0 in range(-r, r + 1):
        for x1 in range(-r, r + 1):
            for x2 in range(-r, r + 1):
                if max(abs(x0), abs(x1), abs(x2)) != r:
                    continue
                if (x0, x1, x2) > (-x0, -x1, -x2):
                    continue
                if gcd(gcd(abs(x0), abs(x1)), abs(x2)) != 1:
                    continue
                yield x0, x1, x2


def reference_square_norm_vector(B, budget):
    """(x, root, visited) with B(x, x) = root^2 != 0, or None once a shell
    would start with `budget` vectors visited."""
    red = reference_reduce_gram(B)
    D, (a, b, c, d, e, f) = reference_integer_form(
        linalg.mat_mul(linalg.mat_mul(red, B), linalg.transpose(red)))
    seen = 0
    r = 0
    while seen < budget:
        r += 1
        for x0, x1, x2 in reference_cube_shell(r):
            seen += 1
            m = D * (a * x0 * x0 + b * x1 * x1 + c * x2 * x2
                     + d * x0 * x1 + e * x0 * x2 + f * x1 * x2)
            s = math.isqrt(m) if m > 0 else 0
            if not s or s * s != m:
                continue
            x = [x0 * red[0][i] + x1 * red[1][i] + x2 * red[2][i]
                 for i in range(3)]
            return x, F(s, D), seen
    return None


def reference_definite_frame(c, budget):
    """(outcome, visited): the so3 frame from dense bilinear forms of
    B = -K/2, or the refusal as (error name, witness)."""
    K = killing_form(c)["matrix"]

    def bform(x, y):
        return -sum(x[i] * K[i][j] * y[j] for i in range(3) for j in range(3)) / 2

    Bmat = [[bform(linalg.e_k(3, i), linalg.e_k(3, j)) for j in range(3)]
            for i in range(3)]
    found = reference_square_norm_vector(Bmat, budget)
    if found is None:
        return ("RationalFormError", {"budget": budget}), None
    x, croot, seen = found
    e1 = [v / croot for v in x]
    comp = linalg.nullspace([[bform(linalg.e_k(3, j), e1) for j in range(3)]])
    w = comp[0]
    q = bform(w, w)
    ts = _two_squares(q.numerator * q.denominator)
    if ts is None:
        return ("RationalFormError", {"complement_norm": str(q)}), seen
    rho = F(ts[0], q.denominator)
    sig2 = F(ts[1], q.denominator)
    u = bracket(c, e1, w)
    e2 = [(rho * a + sig2 * b) / q for a, b in zip(w, u)]
    assert bform(e2, e2) == 1
    return ("so3", [e1, e2, bracket(c, e1, e2)]), seen


def definite_outcome(c):
    try:
        r = identify3(c)
    except RationalFormError as e:
        return type(e).__name__, e.witness
    return r.label, [list(row) for row in r.witness]


def test_definite_walk_is_the_cube_sweep():
    n = sum(1 for r in range(1, 7) for _ in reference_cube_shell(r))
    assert list(islice(_definite_walk(), n)) == [
        x for r in range(1, 7) for x in reference_cube_shell(r)]


def test_definite_frame_matches_fraction_reduction(monkeypatch):
    # seeded so3 and so_q inputs under random basis changes, with one
    # square among q1..q3 so that every form has a vector of square norm
    # and no full-budget sweep (tens of seconds in the reference) is run;
    # the complement-norm refusals are proofs and are compared too.  Each
    # frame found after the first vector is compared again with the budget
    # one short of it: the budget is checked at the start of a shell, so the
    # frame is still found when its shell had started under the budget.
    rng = random.Random(2501)
    inputs = [change_basis(catalog("so3"), rand_invertible(rng)) for _ in range(8)]
    for _ in range(24):
        q = [rng.choice((1, 4)), rng.randint(1, 7), rng.randint(1, 7)]
        rng.shuffle(q)
        inputs.append(change_basis(so_q(*q), rand_invertible(rng)))
    kinds = Counter()
    for d in inputs:
        ref, seen = reference_definite_frame(d, DEFINITE_SEARCH_BUDGET)
        assert definite_outcome(d) == ref
        kinds[ref[0], seen > 1] += 1
        if seen > 1:
            monkeypatch.setattr(identify, "DEFINITE_SEARCH_BUDGET", seen - 1)
            assert definite_outcome(d) == reference_definite_frame(d, seen - 1)[0]
            monkeypatch.undo()
    assert kinds["so3", True] and kinds["RationalFormError", True]


def test_definite_budget_refusal_matches_cube_sweep(monkeypatch):
    # any positive q, with the budget cut to a few thousand vectors, so
    # that forms representing no square are refused in milliseconds
    budget = 3000
    monkeypatch.setattr(identify, "DEFINITE_SEARCH_BUDGET", budget)
    rng = random.Random(2502)
    kinds = Counter()
    for _ in range(30):
        q = [rng.randint(1, 7) for _ in range(3)]
        d = change_basis(so_q(*q), rand_invertible(rng))
        ref, _ = reference_definite_frame(d, budget)
        assert definite_outcome(d) == ref, q
        kinds[ref[0] if ref[0] == "so3" else next(iter(ref[1]))] += 1
    assert kinds["so3"] and kinds["budget"] and kinds["complement_norm"]


def expansions():
    return (s_expand(S3, catalog("sl2R")), zero_reduce(S3, catalog("A3.2")))


def test_coordinate_extraction_matches_subspace_path():
    for alg in expansions():
        n = alg.dim
        closed = 0
        for idx in combinations(range(n), 3):
            gens = [[int(i == k) for i in range(n)] for k in idx]
            ref = outcome(extract_subalgebra, alg, Subspace(n, gens))
            # generator order, duplicates and Fraction entries do not matter
            for span in (gens, gens[::-1], gens + gens[:1],
                         [[F(x) for x in v] for v in gens]):
                assert outcome(extract_subalgebra, alg, span) == ref, idx
            closed += isinstance(ref, StructureTensor)
        assert 0 < closed < len(list(combinations(range(n), 3)))


def test_coordinate_extraction_refusals_match_subspace_path():
    alg = expansions()[0]
    bad_len = [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(InputFormatError) as got:
        extract_subalgebra(alg, bad_len)
    with pytest.raises(InputFormatError) as ref:
        Subspace(alg.dim, bad_len)
    assert str(got.value) == str(ref.value)
    with pytest.raises(TypeError):
        extract_subalgebra(alg, [[1.0] + [0] * (alg.dim - 1)])
    # a non-unit span still goes through the echelon basis
    e = [[int(i == k) for i in range(alg.dim)] for k in range(3)]
    mixed = [[a + b for a, b in zip(e[0], e[1])], e[1], e[2]]
    assert outcome(extract_subalgebra, alg, mixed) == outcome(
        extract_subalgebra, alg, Subspace(alg.dim, mixed))


def test_derived_subalgebra_is_span_of_all_brackets():
    rng = random.Random(1906)
    for n in (1, 2, 3, 4, 6):
        for density in (0.2, 0.5, 0.9):
            c = random_tensor(rng, n, density)
            full = full_space(n)
            assert derived_subalgebra(c) == span_of_brackets(c, full, full)
    for name in ("3A1", "sl2R", "gF", "gE"):
        c = catalog(name)
        full = full_space(c.dim)
        assert derived_subalgebra(c) == span_of_brackets(c, full, full)


def reference_scan(ambient):
    """Every triple in combinations order; each closed one (its three pair
    brackets supported on the triple) extracted by extract_subalgebra and
    ranked on its dense 3x3 block."""
    n = ambient.dim
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    records = []
    examined = 0
    for idx in combinations(range(n), 3):
        examined += 1
        if not {k for pq in combinations(idx, 2)
                for k, _ in ambient.rows.get(pq, ())} <= set(idx):
            continue
        gens = tuple(units[k] for k in idx)
        sub = extract_subalgebra(ambient, gens)
        dense = [[dict(sub.rows.get(pq, ())).get(t, 0) for t in range(3)]
                 for pq in ((0, 1), (0, 2), (1, 2))]
        records.append((gens, linalg.rank(dense), sub))
    return tuple(records), examined


# the all3 classes and the parameters of acceptance criterion 8
SCAN_SOURCES = ("3A1", "A2.1+A1", "A3.1", "A3.2", "A3.3", "A3.4(a=1/2)",
                "A3.4(a=-1)", "A3.4(a=1/3)", "A3.5(b=0)", "A3.5(b=1)",
                "A3.5(b=2)", "sl2R", "so3")


def test_span_scan_matches_extract_subalgebra_on_every_triple():
    ambients = {}
    for label in SCAN_SOURCES:
        c = resolve_algebra(label)
        for s, _ in semigroup_inventory(4):
            ambients[s_expand(s, c)] = None
            if zero_element(s) is not None:
                ambients[zero_reduce(s, c)] = None
    records = 0
    for ambient in ambients:
        got = scan_3dim_subalgebras(ambient)
        assert got == reference_scan(ambient), ambient
        assert got[1] == math.comb(ambient.dim, 3)
        records += len(got[0])
    assert len(ambients) > 1000 and records > 80000


def test_equal_blocks_are_one_object_until_clear_caches():
    search.clear_caches()
    # the common denominators of the two ambients are 2 and 1
    ambients = (s_expand(S3, catalog("A3.4", a=F(1, 2))), s_expand(S3, catalog("sl2R")))
    assert [_numerators(a)[0] for a in ambients] == [2, 1]
    first = {}
    for ambient in ambients:
        for _, _, t in scan_3dim_subalgebras(ambient)[0]:
            assert first.setdefault(t, t) is t
    shared = set(first)
    for ambient in ambients:
        shared &= {t for _, _, t in scan_3dim_subalgebras(ambient)[0]}
    assert shared       # some block value is met in both ambients
    search.clear_caches()
    assert search._BLOCKS == {}
    assert scan_3dim_subalgebras.cache_info().currsize == 0
    again = {t: t for _, _, t in scan_3dim_subalgebras(ambients[1])[0]}
    assert again.keys() <= first.keys()
    assert all(again[t] is not first[t] for t in again)


def fresh_numerators(c):
    d = math.lcm(*(q.denominator for row in c.rows.values() for _, q in row))
    return d, {ij: tuple((k, q * d) for k, q in row) for ij, row in c.rows.items()}


def test_cached_numerators_are_never_modified():
    c = catalog("A3.4", a=F(1, 3))
    expanded = s_expand(S3, c)
    assert validate_lie(c)["ok"] and validate_lie(expanded)["ok"]
    change_basis(c, [[1, 2, 0], [0, 1, F(1, 2)], [3, 0, 1]])
    scan_3dim_subalgebras(c)
    scan_3dim_subalgebras(expanded)
    for t in (c, expanded):
        assert _numerators(t) is _numerators(t)
        assert _numerators(t) == fresh_numerators(t)
    assert _numerators(c)[0] == 3


def reference_validate_resonance(s, c, rspec, parts):
    """validate_resonance on Subspace parts: the direct sum by a rank, the
    bracket condition by a Subspace per block pair and a contains per
    bracket.  parts maps each key of rspec to its Subspace."""
    n, N = c.dim, s.order
    report = {"ok": True}

    stacked = []
    total = 0
    for p in rspec.keys:
        V = parts[p]
        if V.ambient != n:
            raise InputFormatError("subspace for part %r has wrong ambient" % (p,))
        stacked.extend(list(v) for v in V.basis)
        total += V.dim
    report["direct_sum"] = (total == n and linalg.rank(stacked) == n)

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
            target = rspec.targets[(p, q)]
            gens = []
            for r in target:
                gens.extend(list(v) for v in parts[r].basis)
            tspace = Subspace(n, gens)
            for x in parts[p].basis:
                for y in parts[q].basis:
                    if not tspace.contains(bracket(c, list(x), list(y))):
                        bracket_bad.append((p, q))
                        break
                else:
                    continue
                break
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


def subspace_parts(n, blocks):
    return {p: Subspace(n, [linalg.e_k(n, i - 1) for i in bl])
            for p, bl in blocks.items()}


def subset(rng, items):
    return {x for x in items if rng.random() < 0.5}


def random_decompositions(rng, n, order, count):
    """(blocks, sets, targets, partitions): blocks of distinct indices that
    may overlap or miss one, random sets and targets, and partitions half of
    the time; first the whole-space decomposition, which is always
    resonant."""
    elems = range(1, order + 1)
    yield {0: list(range(1, n + 1))}, {0: set(elems)}, {(0, 0): {0}}, None
    for _ in range(count):
        k = rng.randint(1, 3)
        blocks = {p: sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
                  for p in range(k)}
        if rng.random() < 0.5:       # a partition of 1..n instead
            cut = sorted(rng.sample(range(1, n), k - 1))
            blocks = {p: list(range(a + 1, b + 1))
                      for p, (a, b) in enumerate(zip([0] + cut, cut + [n]))}
        sets = {p: subset(rng, elems) for p in blocks}
        targets = {(p, q): subset(rng, blocks) for p in blocks for q in blocks}
        partitions = None
        if rng.random() < 0.5:
            partitions = {}
            for p, st in sets.items():
                hat = subset(rng, st)
                partitions[p] = (st - hat, hat)
        yield blocks, sets, targets, partitions


def test_validate_resonance_matches_subspace_path():
    rng = random.Random(2301)
    failing = Counter()
    compared = 0
    for label in ALL3_LABELS:
        c = resolve_algebra(label)
        for s, _ in semigroup_inventory(3):
            for blocks, sets, targets, partitions in random_decompositions(
                    rng, c.dim, s.order, 12):
                spec = ResonanceSpec(blocks, sets, targets, partitions)
                parts = subspace_parts(c.dim, blocks)
                rep = validate_resonance(s, c, spec)
                assert rep == reference_validate_resonance(s, c, spec, parts), \
                    (label, s, blocks, sets, targets, partitions)
                for key, val in rep.items():
                    # a flag fails when False, a witness list when non-empty
                    failing[key] += not val if isinstance(val, bool) else bool(val)
                compared += 1
    # every condition, and the verdict, fails somewhere and holds somewhere
    assert len(failing) == 6
    for key, count in failing.items():
        assert 0 < count < compared, (key, count, compared)

    # Subspace parts merged a repeated index; counted with repeats, the
    # blocks no longer partition 1..n
    c = catalog("sl2R")
    blocks = {0: [1, 1], 1: [2, 3]}
    spec = ResonanceSpec(blocks, {0: {1}, 1: {1}},
                         {(0, 0): {0}, (0, 1): {1}, (1, 1): {0}})
    parts = subspace_parts(3, blocks)
    assert reference_validate_resonance(TRIVIAL, c, spec, parts)["direct_sum"]
    assert not validate_resonance(TRIVIAL, c, spec)["direct_sum"]


# --- contraction limits against the Laurent-fraction path ------------------

def shift(a, k):
    return LaurentPoly({e + k: q for e, q in a.terms.items()})


def reference_divmod_poly(a, b):
    """Long division of ordinary (valuation >= 0) polynomials."""
    assert b
    q = {}
    r = dict(a.terms)
    db = max(b.terms)
    lead = b.coeff(db)
    while r:
        dr = max(r)
        if dr < db:
            break
        f = r[dr] / lead
        q[dr - db] = f
        for e, c in b.terms.items():
            ne = e + dr - db
            nv = r.get(ne, F(0)) - f * c
            if nv:
                r[ne] = nv
            else:
                r.pop(ne, None)
    return LaurentPoly(q), LaurentPoly(r)


def reference_gcd_poly(a, b):
    while b:
        _, rem = reference_divmod_poly(a, b)
        a, b = b, rem
    if a:
        a = a * (F(1) / a.coeff(max(a.terms)))
    return a


class ReferenceLaurentFrac:
    """num/den with den normalized to valuation 0 and constant term 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPoly.const(1)
        if not num:
            self.num = LaurentPoly()
            self.den = LaurentPoly.const(1)
            return
        vn, vd = num.valuation(), den.valuation()
        n0, d0 = shift(num, -vn), shift(den, -vd)
        q, r = reference_divmod_poly(n0, d0)
        if not r:
            self.num = shift(q, vn - vd)
            self.den = LaurentPoly.const(1)
            return
        g = reference_gcd_poly(n0, d0)
        n0, _ = reference_divmod_poly(n0, g)
        d0, _ = reference_divmod_poly(d0, g)
        c = d0.coeff(0)
        self.num = shift(n0, vn - vd) * (F(1) / c)
        self.den = d0 * (F(1) / c)

    def valuation(self):
        return self.num.valuation()

    def value_at_zero(self):
        v = self.valuation()
        if v is None or v > 0:
            return F(0)
        assert v == 0, "divergent entry has no value at zero"
        return self.num.coeff(0) / self.den.coeff(0)


def reference_transform(c, fam):
    """The dense n^3 tensor of reduced fractions, det and adj by cofactors."""
    n = c.dim
    full = tuple(range(n))
    det = _det_minor(fam.entries, full, full, {})
    if not det:
        raise InputFormatError("family determinant is identically zero")
    memo = {}
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = _det_minor(fam.entries, tuple(r for r in full if r != j),
                           tuple(k for k in full if k != i), memo)
            adj[i][j] = m if (i + j) % 2 == 0 else -m
    rows = linalg.transpose(fam.entries)
    back = linalg.transpose(adj)
    zero = ReferenceLaurentFrac(LaurentPoly())
    out = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = [LaurentPoly()] * n
            for (p, q), row in c.rows.items():
                f = rows[i][p] * rows[j][q] - rows[i][q] * rows[j][p]
                if f:
                    for r, x in row:
                        v[r] += f * x
            w = [sum((v[r] * back[r][k] for r in range(n) if v[r]), LaurentPoly())
                 for k in range(n)]
            out[i][j] = [ReferenceLaurentFrac(x, det) if x else zero for x in w]
            out[j][i] = [ReferenceLaurentFrac(-x, det) if x else zero for x in w]
    return out


def reference_limit(entries):
    """Scan every ordered (i, j, k) for a pole, else take constant terms."""
    n = len(entries)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = entries[i][j][k].valuation()
                if v is not None and v < 0:
                    return Divergent(i + 1, j + 1, k + 1, v)
    return StructureTensor(n, {(i, j): [(k, e.value_at_zero())
                                        for k, e in enumerate(entries[i][j])]
                               for i in range(n) for j in range(i + 1, n)})


NONZERO_POOL = [q for q in FRACTION_POOL if q]


def random_family(rng, n):
    """Diagonal entries a eps^s + b eps^t with s != t, so the determinant is
    seldom a monomial; a few monomials off the diagonal; and now and then a
    row copied onto another, which makes the family singular."""
    m = [[LaurentPoly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        s, t = rng.sample(range(-1, 4), 2)
        m[i][i] = LaurentPoly({s: rng.choice(NONZERO_POOL), t: rng.choice(NONZERO_POOL)})
        for j in range(n):
            if j != i and rng.random() < 1.5 / (n * n):
                m[i][j] = LaurentPoly.monomial(rng.randrange(-1, 3), rng.choice(NONZERO_POOL))
    if rng.random() < 0.2:
        src, dst = rng.sample(range(n), 2)
        m[dst] = list(m[src])
    return LaurentBasisFamily(n, m)


def test_contraction_limit_matches_laurent_fraction_path():
    rng = random.Random(2401)
    kinds = Counter()
    for label in ALL3_LABELS + ("gF",):
        c = resolve_algebra(label)
        for _ in range(30 if c.dim == 3 else 12):
            fam = random_family(rng, c.dim)
            got = outcome(lambda: limit(transform_parametric(c, fam)))
            ref = outcome(lambda: reference_limit(reference_transform(c, fam)))
            assert got == ref, (label, fam.to_json())
            kinds[type(got).__name__] += 1
            if isinstance(got, tuple):
                continue
            # entry by entry: num/det has the reduced fraction's valuation,
            # and where that is >= 0, its value at zero
            pt = transform_parametric(c, fam)
            dense = reference_transform(c, fam)
            v0 = pt.det.valuation()
            kinds["non-monomial det"] += len(pt.det.terms) > 1
            kinds["v(det) != 0"] += v0 != 0
            for i in range(c.dim):
                for j in range(i + 1, c.dim):
                    row = dict(pt.rows.get((i, j), ()))
                    for k in range(c.dim):
                        x = row.get(k, LaurentPoly())
                        e = dense[i][j][k]
                        v = x.valuation() - v0 if x else None
                        assert e.valuation() == dense[j][i][k].valuation() == v
                        if v is not None and v >= 0:
                            assert e.value_at_zero() == x.coeff(v0) / pt.det.coeff(v0)
    # limits, poles and singular families all occur, over determinants
    # that are not monomials and that vanish at eps = 0
    assert min(kinds["StructureTensor"], kinds["Divergent"], kinds["tuple"]) >= 40, kinds
    assert kinds["non-monomial det"] > 100 and kinds["v(det) != 0"] > 100, kinds


# --- the Killing form against the dense ad matrices -----------------------

def reference_killing_form(c):
    n = c.dim
    ads = [ad_matrix(c, linalg.e_k(n, i)) for i in range(n)]
    K = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            tr = sum(ads[i][p][q] * ads[j][q][p] for p in range(n) for q in range(n))
            K[i][j] = K[j][i] = tr
    return {"matrix": K, "rank": linalg.rank(K),
            "signature": linalg.symmetric_signature(K)}


def test_killing_form_matches_dense_ad_matrices():
    rng = random.Random(2402)
    signatures = set()
    for label in ALL3_LABELS + ("gF", "gE"):
        c = resolve_algebra(label)
        inputs = [c] + [change_basis(c, rand_invertible(rng, c.dim))
                        for _ in range(12 if c.dim == 3 else 4)]
        for d in inputs:
            got = killing_form(d)
            assert got == reference_killing_form(d), (label, d)
            signatures.add(got["signature"])
    # definite, split, degenerate and zero forms are all among them
    assert {(0, 3, 0), (2, 1, 0), (1, 0, 2), (0, 0, 3), (0, 0, 7)} <= signatures
