"""Exact rational linear algebra kernel."""

import random
from fractions import Fraction as F

from liex import linalg
from support import RATIONAL_POOL, rand_invertible


def test_rref_idempotent_and_pivots():
    rows = [[F(2), F(4), F(6)], [F(1), F(2), F(4)], [F(0), F(0), F(1)]]
    red, pivots = linalg.rref(rows)
    red2, pivots2 = linalg.rref(red)
    assert red == red2 and pivots == pivots2
    assert pivots == [0, 2]
    assert red[0] == [F(1), F(2), F(0)]
    assert red[1] == [F(0), F(0), F(1)]
    assert red[2] == [F(0), F(0), F(0)]


def test_rank_examples():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank(linalg.identity(4)) == 4
    assert linalg.rank([[F(0), F(0)]]) == 0


def test_rank_matches_rref_pivots():
    # non-square matrices with repeated and zero rows, int and Fraction entries
    rng = random.Random(13)
    for _ in range(200):
        rows_n, cols_n = rng.randint(1, 7), rng.randint(1, 7)
        rows = []
        for _ in range(rows_n):
            pick = rng.random()
            if rows and pick < 0.2:
                rows.append(list(rng.choice(rows)))
            elif pick < 0.3:
                rows.append([0] * cols_n)
            elif pick < 0.6:
                rows.append([rng.randint(-3, 3) for _ in range(cols_n)])
            else:
                rows.append([rng.choice(RATIONAL_POOL) for _ in range(cols_n)])
        snapshot = [list(r) for r in rows]
        assert linalg.rank(rows) == len(linalg.rref(rows)[1]), rows
        assert rows == snapshot
    assert linalg.rank([]) == 0
    # dense and square: without Bareiss division the entries blow up here
    dense = [[rng.choice(RATIONAL_POOL) for _ in range(20)] for _ in range(20)]
    dense[19] = [a - b for a, b in zip(dense[3], dense[7])]
    assert linalg.rank(dense) == len(linalg.rref(dense)[1]) == 19


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.choice(RATIONAL_POOL) for _ in range(5)] for _ in range(3)]
        null = linalg.nullspace(rows, ncols=5)
        assert len(null) == 5 - linalg.rank(rows)
        for v in null:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


def test_inverse_round_trip():
    rng = random.Random(12)
    for _ in range(25):
        m = rand_invertible(rng, 4)
        inv = linalg.inverse(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(4)
        assert linalg.mat_mul(inv, m) == linalg.identity(4)


def test_inverse_of_singular_is_none():
    assert linalg.inverse([[F(1), F(2)], [F(2), F(4)]]) is None


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(20):
        a = [[rng.choice(RATIONAL_POOL) for _ in range(3)] for _ in range(3)]
        b = [[rng.choice(RATIONAL_POOL) for _ in range(3)] for _ in range(3)]
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_det_triangular():
    m = [[F(2), F(5), F(7)], [F(0), F(3), F(1)], [F(0), F(0), F(-4)]]
    assert linalg.det(m) == F(-24)


def test_solve_consistent_and_inconsistent():
    a = [[F(1), F(1)], [F(0), F(1)], [F(1), F(2)]]
    assert linalg.solve(a, [F(3), F(2), F(5)]) == [F(1), F(2)]
    assert linalg.solve(a, [F(3), F(2), F(6)]) is None


def test_symmetric_signature_diagonal():
    assert linalg.symmetric_signature([[F(2), F(0)], [F(0), F(-3)]]) == (1, 1, 0)
    assert linalg.symmetric_signature(linalg.zeros(3, 3)) == (0, 0, 3)
    # hyperbolic off-diagonal block
    assert linalg.symmetric_signature(
        [[F(0), F(-4)], [F(-4), F(0)]]) == (1, 1, 0)


def test_symmetric_signature_congruence_invariant():
    rng = random.Random(14)
    s = [[F(2), F(1), F(0)], [F(1), F(-1), F(3)], [F(0), F(3), F(0)]]
    want = linalg.symmetric_signature(s)
    for _ in range(15):
        u = rand_invertible(rng, 3)
        moved = linalg.mat_mul(linalg.mat_mul(u, s), linalg.transpose(u))
        assert linalg.symmetric_signature(moved) == want


def test_is_perfect_square():
    assert linalg.is_perfect_square(F(9, 4)) == (True, F(3, 2))
    assert linalg.is_perfect_square(F(0)) == (True, F(0))
    ok, _ = linalg.is_perfect_square(F(2))
    assert not ok
    ok, _ = linalg.is_perfect_square(F(-4))
    assert not ok


def test_row_space_basis_spans_same_space():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    basis = linalg.row_space_basis(rows)
    assert len(basis) == 2
    red, pivots = linalg.rref(rows)
    span = [red[i] for i in range(len(pivots))]
    for v in rows:
        assert linalg.in_row_space(span, pivots, v)
