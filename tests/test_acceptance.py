"""Acceptance suite: one test per shipped criterion, in order.

Run with -v to get a pass/fail line per criterion.  Runtime budgets are
asserted inside the tests that carry one.  Criterion 4 pins dim Der(gF) = 10,
not 6: 6 is the dimension of the inner derivations ad(gF), and a nilpotent
Lie algebra always has an outer derivation (Jacobson 1955), so Der(gF) is
strictly larger than ad(gF).  The test checks that inclusion directly, from
the ad matrices, without trusting the solver's count; see README,
Derivation algebras of gF and gE.
"""

import random
import time
from fractions import Fraction as F

from liex import linalg
from liex.contraction import U_FE, limit, transform_parametric
from liex.expansion import extract_subalgebra, flat_index, s_expand
from liex.identify import identify3
from liex.liealg import (
    Subspace,
    ad_matrix,
    catalog,
    center,
    change_basis,
    derivation_algebra,
    derived_subalgebra,
    is_nilpotent_matrix_algebra,
    is_unimodular,
)
from liex.search import clear_caches, find_connection, replay, semigroup_inventory
from liex.semigroup import S2, S3
from support import GOLDEN_S2_SL2R, GOLDEN_S3_SL2R, rand_invertible, unit_rows

UNIMODULAR_3DIM = (
    ("3A1", {}),
    ("A3.1", {}),
    ("A3.4", {"a": F(-1)}),
    ("A3.5", {"b": F(0)}),
    ("sl2R", {}),
    ("so3", {}),
)


def test_criterion_1_golden_expansion_tables():
    t0 = time.perf_counter()
    assert s_expand(S2, catalog("sl2R")).nonzero_brackets() == GOLDEN_S2_SL2R
    assert s_expand(S3, catalog("sl2R")).nonzero_brackets() == GOLDEN_S3_SL2R
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_worked_connections():
    clear_caches()
    t0 = time.perf_counter()
    cases = [
        ("sl2R", "A2.1+A1", "S2", unit_rows(6, (0, 1, 2))),
        ("sl2R", "A3.3", "S3", unit_rows(9, (0, 1, 5))),
        ("A2.1+A1", "A3.3", "S3", unit_rows(9, (0, 1, 5))),
        ("A3.3", "A2.1+A1", "S2", unit_rows(6, (0, 1, 5))),
    ]
    for src, dst, sname, span in cases:
        res = find_connection(catalog(src), dst, max_order=3)
        assert res.found(), (src, dst)
        assert any(w.semigroup_name == sname and w.span == span
                   for w in res.witnesses), (src, dst)
        for w in res.witnesses:
            assert replay(catalog(src), w)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_seven_dim_contraction():
    t0 = time.perf_counter()
    pt = transform_parametric(catalog("gF"), U_FE)
    # the constant (i, j, k) is num/det, of valuation v(num) - v(det)
    for (i, j), row in pt.rows.items():
        for k, x in row:
            assert x.valuation() - pt.det.valuation() >= 0, (i + 1, j + 1, k + 1)
    assert limit(pt) == catalog("gE")
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_derivation_algebras():
    der_f = derivation_algebra(catalog("gF"))
    der_e = derivation_algebra(catalog("gE"))
    assert is_nilpotent_matrix_algebra(der_f)
    assert is_nilpotent_matrix_algebra(der_e)
    assert len(der_e) == 11
    assert len(der_f) == 10
    # the count, checked apart from the solver: the returned matrices are
    # independent, the seven inner derivations ad(e_i) lie in their span and
    # span 6 dimensions (dim gF - dim center), and Der(gF) is strictly larger
    der_rows = [[x for row in d for x in row] for d in der_f]
    red, pivots = linalg.rref(der_rows)
    assert len(pivots) == 10
    ad_rows = [[x for row in ad_matrix(catalog("gF"), linalg.e_k(7, i)) for x in row]
               for i in range(7)]
    for r in ad_rows:
        assert linalg.in_row_space(red[:len(pivots)], pivots, r)
    assert linalg.rank(ad_rows) == 6 < len(pivots)


def test_criterion_5_unimodularity_preserved_by_expansion():
    t0 = time.perf_counter()
    semis = [s for s, _ in semigroup_inventory(3)]
    assert len(semis) == 16
    for name, params in UNIMODULAR_3DIM:
        c = catalog(name, **params)
        assert is_unimodular(c)["unimodular"]
        for s in semis:
            assert is_unimodular(s_expand(s, c))["unimodular"], (name, s.table)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_derived_algebra_identity():
    semis = [s for s, _ in semigroup_inventory(3)]
    for name, params in UNIMODULAR_3DIM:
        c = catalog(name, **params)
        der = derived_subalgebra(c)
        for s in semis:
            N = s.order
            ex = s_expand(s, c)
            products = sorted({s.product(a, b)
                               for a in range(1, N + 1) for b in range(1, N + 1)})
            gens = []
            for g in products:
                for v in der.basis:
                    w = [F(0)] * ex.dim
                    for i in range(c.dim):
                        if v[i]:
                            w[flat_index(i + 1, g, N) - 1] = v[i]
                    gens.append(w)
            assert derived_subalgebra(ex) == Subspace(ex.dim, gens), (name, s.table)


def test_criterion_7_invariant_dimension_deltas():
    sub_a = extract_subalgebra(s_expand(S2, catalog("sl2R")), unit_rows(6, (0, 1, 2)))
    sub_b = extract_subalgebra(s_expand(S3, catalog("sl2R")), unit_rows(9, (0, 1, 5)))
    assert identify3(sub_a).label == "A2.1+A1"
    assert identify3(sub_b).label == "A3.3"
    assert (center(sub_a).dim, center(sub_b).dim) == (1, 0)
    assert (derived_subalgebra(sub_a).dim, derived_subalgebra(sub_b).dim) == (1, 2)


def test_criterion_8_classifier_round_trip():
    t0 = time.perf_counter()
    entries = [
        ("3A1", None), ("A2.1+A1", None), ("A3.1", None), ("A3.2", None),
        ("A3.3", None),
        ("A3.4", F(1, 2)), ("A3.4", F(-1)), ("A3.4", F(1, 3)),
        ("A3.5", F(0)), ("A3.5", F(2)),
        ("sl2R", None), ("so3", None),
    ]
    rng = random.Random(1008)
    for name, param in entries:
        params = {} if param is None else {
            ("a" if name == "A3.4" else "b"): param}
        c = catalog(name, **params)
        for _ in range(200):
            u = rand_invertible(rng, 3)
            d = change_basis(c, u)
            r = identify3(d)
            assert (r.label, r.param) == (name, param), (name, param, u)
            assert change_basis(d, r.witness_matrix()) == c
    assert time.perf_counter() - t0 < 60.0


def test_criterion_9_negative_evidence_with_space_counts():
    expected_space = {"semigroups": 16, "subalgebra_candidates": 1069,
                      "zero_reduce_candidates": 162}
    for src in ("sl2R", "so3"):
        for target in ("A3.2", "A3.4(a=1/2)", "A3.5(b=1)"):
            res = find_connection(catalog(src), target, max_order=3,
                                  modes=("subalgebra", "zero_reduce"))
            assert res.witnesses == (), (src, target)
            assert res.space == expected_space, (src, target)
