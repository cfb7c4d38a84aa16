"""Semigroup tables: validation, zeros, isomorphism, enumeration.

The enumeration counts are cross-checked against a dumb generate-and-filter
oracle at order 3 (729 symmetric tables, full associativity check each), and
against OEIS A001426 up to order 5.
"""

from itertools import permutations, product

import pytest

from liex import semigroup
from liex.errors import InputFormatError, NoZeroElementError
from liex.semigroup import (
    S2,
    S3,
    TRIVIAL,
    BoundExceededError,
    SemigroupTable,
    canonical_form,
    enumerate_abelian_semigroups,
    semigroups_isomorphic,
    validate_semigroup,
    zero_element,
)


def brute_force_abelian(n):
    # every symmetric table over 1..n, kept when fully associative
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    out = []
    for assign in product(range(1, n + 1), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for (a, b), v in zip(cells, assign):
            t[a][b] = t[b][a] = v
        if all(t[t[a][b] - 1][c] == t[a][t[b][c] - 1]
               for a in range(n) for b in range(n) for c in range(n)):
            out.append(SemigroupTable(t))
    return out


def test_builtins_validate():
    for s in (TRIVIAL, S2, S3):
        assert validate_semigroup(s)["ok"]


def test_validate_reports_first_broken_triple():
    bad = SemigroupTable([[2, 2], [2, 1]])
    rep = validate_semigroup(bad)
    assert not rep["ok"]
    assert rep["commutativity"] == []
    assert rep["associativity"][0] == (1, 1, 2)


def test_validate_reports_commutativity():
    rep = validate_semigroup(SemigroupTable([[1, 1], [2, 2]]))
    assert (1, 2) in rep["commutativity"]


def test_table_entry_validation():
    with pytest.raises(InputFormatError):
        SemigroupTable([[1, 3], [3, 1]])
    with pytest.raises(InputFormatError):
        SemigroupTable([[True]])
    with pytest.raises(InputFormatError):
        SemigroupTable([[1, 1]])
    with pytest.raises(InputFormatError):
        SemigroupTable([])


def test_product_is_one_based():
    assert S3.product(2, 2) == 1
    assert S3.product(2, 3) == 2
    assert S3.product(3, 3) == 3


def test_zero_elements():
    assert zero_element(S2) == 2
    assert zero_element(S3) == 1
    assert zero_element(TRIVIAL) == 1
    z2 = SemigroupTable([[1, 2], [2, 1]])
    assert zero_element(z2) is None
    with pytest.raises(NoZeroElementError):
        from liex.semigroup import require_zero
        require_zero(z2)


def test_relabel_round_trip():
    perm = (3, 1, 2)
    inv = (2, 3, 1)
    assert S3.relabel(perm).relabel(inv) == S3


def test_canonical_form_idempotent():
    for s in enumerate_abelian_semigroups(3):
        c = canonical_form(s)
        assert canonical_form(c) == c


def test_isomorphism_finds_relabeling():
    const1 = SemigroupTable([[1, 1], [1, 1]])
    perm = semigroups_isomorphic(S2, const1)
    assert perm == (2, 1)
    assert S2.relabel(perm) == const1
    assert semigroups_isomorphic(S2, SemigroupTable([[1, 2], [2, 1]])) is None
    assert semigroups_isomorphic(S3, S3) == (1, 2, 3)
    assert semigroups_isomorphic(S2, TRIVIAL) is None


def test_order2_classes():
    reps = enumerate_abelian_semigroups(2)
    assert [list(map(list, s.table)) for s in reps] == [
        [[1, 1], [1, 1]],
        [[1, 1], [1, 2]],
        [[1, 2], [2, 1]],
    ]
    hits = [s for s in reps if semigroups_isomorphic(s, S2)]
    assert len(hits) == 1 and hits[0].table == ((1, 1), (1, 1))


def test_order2_labelled_count():
    assert len(enumerate_abelian_semigroups(2, up_to_isomorphism=False)) == 6
    assert len(brute_force_abelian(2)) == 6


def test_order3_against_brute_force():
    oracle = sorted(brute_force_abelian(3), key=lambda s: s.table)
    labelled = enumerate_abelian_semigroups(3, up_to_isomorphism=False)
    assert len(oracle) == 63
    assert labelled == oracle
    oracle_classes = {canonical_form(s).table for s in oracle}
    reps = enumerate_abelian_semigroups(3)
    assert len(reps) == 12
    assert {s.table for s in reps} == oracle_classes


def test_order4_counts():
    labelled = enumerate_abelian_semigroups(4, up_to_isomorphism=False)
    reps = enumerate_abelian_semigroups(4)
    assert len(reps) == 58
    assert len(labelled) == 1140
    # the canonical form of every labelled table, as enumeration once did it
    assert [s.table for s in reps] == sorted({canonical_form(s).table
                                              for s in labelled})


def test_counts_match_oeis():
    # classes: OEIS A001426; labelled tables: every relabeling counted.
    # The enumeration returns its tables unchecked, so each is checked here.
    for order, classes, labelled in ((1, 1, 1), (2, 3, 6), (3, 12, 63),
                                     (4, 58, 1140), (5, 325, 30730)):
        for up_to_isomorphism, count in ((True, classes), (False, labelled)):
            tables = enumerate_abelian_semigroups(
                order, up_to_isomorphism=up_to_isomorphism, max_order=5)
            assert len(tables) == count
            assert all(validate_semigroup(s)["ok"] for s in tables)


def test_one_canonical_form_per_class(monkeypatch):
    calls = []
    orbits = []
    real, real_orbit = semigroup.canonical_form, semigroup._orbit

    def counting(s):
        calls.append(s)
        return real(s)

    def counting_orbit(table):
        orbits.append(table)
        return real_orbit(table)

    monkeypatch.setattr(semigroup, "canonical_form", counting)
    monkeypatch.setattr(semigroup, "_orbit", counting_orbit)
    reps = enumerate_abelian_semigroups(4)
    # one canonical form check, so one orbit, per emitted class
    assert len(reps) == len(calls) == len(orbits) == 58
    calls.clear()
    orbits.clear()
    enumerate_abelian_semigroups(4, up_to_isomorphism=False)
    assert calls == [] and orbits == []


def test_orbit_sizes_add_up_to_labelled_counts():
    # n!/|Aut(s)| labelled tables per class: a class the pruning dropped,
    # or one met twice, breaks the sum
    for order, labelled in ((1, 1), (2, 6), (3, 63), (4, 1140), (5, 30730)):
        perms = list(permutations(range(1, order + 1)))
        total = 0
        for s in enumerate_abelian_semigroups(order, max_order=5):
            aut = sum(semigroup._relabel(s.table, p) == s.table for p in perms)
            total += len(perms) // aut
        assert total == labelled


def test_relabeling_invariants():
    # every class under every relabeling covers every labelled table
    for order in (1, 2, 3, 4):
        for s in enumerate_abelian_semigroups(order):
            canon = canonical_form(s)
            for p in permutations(range(1, order + 1)):
                image = s.relabel(p)
                assert canonical_form(image) == canon
                q = semigroups_isomorphic(s, image)
                assert q is not None and s.relabel(q) == image


def test_enumeration_contains_builtins():
    classes2 = {s.table for s in enumerate_abelian_semigroups(2)}
    assert canonical_form(S2).table in classes2
    classes3 = {s.table for s in enumerate_abelian_semigroups(3)}
    assert canonical_form(S3).table in classes3


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        enumerate_abelian_semigroups(5)
    with pytest.raises(InputFormatError):
        enumerate_abelian_semigroups(0)
    # explicit bound overrides the default
    assert len(enumerate_abelian_semigroups(2, max_order=2)) == 3
    with pytest.raises(BoundExceededError):
        enumerate_abelian_semigroups(3, max_order=2)


def test_json_round_trip():
    blob = S3.to_json()
    assert blob == {"order": 3, "table": [[1, 1, 1], [1, 1, 2], [1, 2, 3]]}
    assert SemigroupTable.from_json(blob) == S3
    with pytest.raises(InputFormatError):
        SemigroupTable.from_json({"order": 2, "table": [[1]]})
    with pytest.raises(InputFormatError):
        SemigroupTable.from_json({})
    for table in (5, [5], None, [None], "1", {"1": [1]}):
        with pytest.raises(InputFormatError):
            SemigroupTable.from_json({"table": table})


def test_json_rejects_bool_order():
    # true == 1, so a bool order would otherwise match a 1x1 table
    with pytest.raises(InputFormatError):
        SemigroupTable.from_json({"order": True, "table": [[1]]})
    assert SemigroupTable.from_json({"order": 1, "table": [[1]]}) == TRIVIAL
