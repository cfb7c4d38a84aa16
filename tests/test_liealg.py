"""Structure tensors, the named catalog, and the invariant battery."""

import random
from fractions import Fraction as F

import pytest

from liex import linalg
from liex.errors import InputFormatError, NotALieAlgebraError, NotASubalgebraError
from liex.liealg import (
    CATALOG_NAMES,
    MAX_JSON_DIM,
    StructureTensor,
    Subspace,
    ad_matrix,
    bracket,
    catalog,
    center,
    change_basis,
    check_json_dim,
    derivation_algebra,
    derived_subalgebra,
    full_space,
    is_nilpotent_matrix_algebra,
    is_unimodular,
    killing_form,
    make_label,
    nilpotency_degree,
    parse_label,
    require_lie,
    resolve_algebra,
    solvability_degree,
    span_of_brackets,
    validate_lie,
)
from support import KILLING_SL2R, KILLING_SO3, rand_invertible

ALL_CATALOG = [
    ("3A1", {}),
    ("A2.1+A1", {}),
    ("A3.1", {}),
    ("A3.2", {}),
    ("A3.3", {}),
    ("A3.4", {"a": F(1, 2)}),
    ("A3.4", {"a": F(-1)}),
    ("A3.5", {"b": F(0)}),
    ("A3.5", {"b": F(2)}),
    ("sl2R", {}),
    ("so3", {}),
    ("gF", {}),
    ("gE", {}),
]


def test_catalog_entries_are_lie_algebras():
    for name, params in ALL_CATALOG:
        rep = validate_lie(catalog(name, **params))
        assert rep["ok"], (name, params, rep)


def test_catalog_parameter_ranges():
    with pytest.raises(InputFormatError):
        catalog("A3.4", a=2)
    with pytest.raises(InputFormatError):
        catalog("A3.4", a=0)
    with pytest.raises(InputFormatError):
        catalog("A3.5", b=-1)
    with pytest.raises(InputFormatError):
        catalog("A3.4")
    with pytest.raises(InputFormatError):
        catalog("sl2R", a=1)
    with pytest.raises(InputFormatError):
        catalog("nope")


def test_seven_dim_entries():
    ge = catalog("gE")
    assert ge.dim == 7
    assert ge.bracket_of(2, 3) == {6: 1, 7: 1}
    assert ge.bracket_of(2, 4) == {7: 1}
    gf = catalog("gF")
    assert gf.bracket_of(3, 4) == {7: -1}
    assert gf.bracket_of(2, 5) == {7: 1}


def test_from_brackets_rejects_bad_input():
    with pytest.raises(InputFormatError):
        StructureTensor.from_brackets(3, {(1, 2): {1: 1}, (2, 1): {1: 1}})
    with pytest.raises(InputFormatError):
        StructureTensor.from_brackets(3, {(2, 2): {1: 1}})
    with pytest.raises(InputFormatError):
        StructureTensor.from_brackets(3, {(1, 2): {4: 1}})


def test_jacobi_witness():
    c = StructureTensor.from_brackets(
        3, {(1, 2): {1: 1}, (1, 3): {1: 1}, (2, 3): {2: 1, 3: 1}})
    rep = validate_lie(c)
    assert not rep["ok"]
    assert rep["antisymmetry"] == []
    assert rep["jacobi"] == [(1, 2, 3, 1, F(2))]
    with pytest.raises(NotALieAlgebraError):
        require_lie(c)


def _dense_jacobi(c):
    """Reference Jacobi report: full n x n x n constants read through
    bracket_of, and every triple i<j<k bracketed out in coordinates."""
    n = c.dim
    t = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, q in c.bracket_of(i + 1, j + 1).items():
                t[i][j][k - 1] = q

    def br(x, y):
        out = [F(0)] * n
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    for k in range(n):
                        out[k] += x[i] * y[j] * t[i][j][k]
        return out

    jac = []
    for i in range(n):
        ei = linalg.e_k(n, i)
        for j in range(i + 1, n):
            ej = linalg.e_k(n, j)
            for k in range(j + 1, n):
                ek = linalg.e_k(n, k)
                r1 = br(ei, br(ej, ek))
                r2 = br(ej, br(ek, ei))
                r3 = br(ek, br(ei, ej))
                for l in range(n):
                    res = r1[l] + r2[l] + r3[l]
                    if res:
                        jac.append((i + 1, j + 1, k + 1, l + 1, res))
    return jac


def test_validate_lie_matches_dense_reference():
    # non-integer coefficients with several denominators, so the common
    # denominator of the check differs from each residual's own
    rng = random.Random(8)
    pool = [q for q in (F(p, d) for p in range(-7, 8) for d in (2, 3, 4, 5, 6))
            if q.denominator > 1]
    tensors = []
    for _ in range(60):
        n = rng.randint(3, 6)
        brackets = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.6:
                    pair = (i, j) if rng.random() < 0.5 else (j, i)
                    brackets[pair] = {k: rng.choice(pool) for k
                                      in rng.sample(range(1, n + 1), rng.randint(1, 2))}
        tensors.append(StructureTensor.from_brackets(n, brackets))
    for name, params in ALL_CATALOG:
        c = catalog(name, **params)
        tensors.append(change_basis(c, rand_invertible(rng, c.dim)))
    lie = fractional = 0
    for c in tensors:
        ref = _dense_jacobi(c)
        assert validate_lie(c) == {"ok": not ref, "antisymmetry": [], "jacobi": ref}, c
        lie += not ref
        fractional += any(res.denominator > 1 for *_, res in ref)
    assert lie >= len(ALL_CATALOG) and fractional >= 40


def test_tensors_have_one_canonical_form():
    # the scan and classification caches and identify3's witness check all
    # key on == and hash
    zero = StructureTensor.from_brackets(3, {(1, 2): {3: 0}})
    assert zero == catalog("3A1") and hash(zero) == hash(catalog("3A1"))
    assert zero.to_json() == catalog("3A1").to_json()
    flipped = StructureTensor.from_brackets(3, {(2, 1): {1: -1}})
    assert flipped == catalog("A2.1+A1") and hash(flipped) == hash(catalog("A2.1+A1"))
    rng = random.Random(13)
    for name, params in ALL_CATALOG:
        c = catalog(name, **params)
        same = change_basis(c, linalg.identity(c.dim))
        assert same == c and hash(same) == hash(c)
        u = rand_invertible(rng, c.dim)
        back = change_basis(change_basis(c, u), linalg.inverse(u))
        assert back == c and hash(back) == hash(c)
        for i in range(1, c.dim + 1):
            assert c.bracket_of(i, i) == {}
            for j in range(1, c.dim + 1):
                assert c.bracket_of(j, i) == {k: -q for k, q in c.bracket_of(i, j).items()}


def test_bracket_and_ad():
    c = catalog("sl2R")
    assert bracket(c, [F(1), F(0), F(0)], [F(0), F(1), F(0)]) == [F(1), F(0), F(0)]
    assert ad_matrix(c, [F(0), F(1), F(0)]) == [
        [F(-1), F(0), F(0)],
        [F(0), F(0), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_change_basis_identity_and_round_trip():
    rng = random.Random(11)
    for name, params in ALL_CATALOG:
        c = catalog(name, **params)
        assert change_basis(c, linalg.identity(c.dim)) == c
    c = catalog("sl2R")
    for _ in range(10):
        u = rand_invertible(rng, 3)
        assert change_basis(change_basis(c, u), linalg.inverse(u)) == c


def test_compose_changes_matches_sequential_application():
    rng = random.Random(12)
    c = catalog("A3.2")
    for _ in range(10):
        u = rand_invertible(rng, 3)
        v = rand_invertible(rng, 3)
        assert change_basis(change_basis(c, u), v) == change_basis(
            c, linalg.mat_mul(v, u))


def test_worked_basis_changes_to_lower_triangular_form():
    # [E1,E3]=E2, [E2,E3]=E2 becomes [f1,f2]=f1 under f1=E2, f2=E3, f3=E1-E2
    c = StructureTensor.from_brackets(3, {(1, 3): {2: 1}, (2, 3): {2: 1}})
    u = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(1), F(-1), F(0)]]
    assert change_basis(c, u) == catalog("A2.1+A1")
    # [f1,f3]=f1, [f2,f3]=f1 becomes [g1,g2]=g1 under g1=f1, g2=f3, g3=f1-f2
    c2 = StructureTensor.from_brackets(3, {(1, 3): {1: 1}, (2, 3): {1: 1}})
    u2 = [[F(1), F(0), F(0)], [F(0), F(0), F(1)], [F(1), F(-1), F(0)]]
    assert change_basis(c2, u2) == catalog("A2.1+A1")
    # flipping the sign in the third row breaks it
    u3 = [[F(1), F(0), F(0)], [F(0), F(0), F(1)], [F(1), F(1), F(0)]]
    assert change_basis(c2, u3) != catalog("A2.1+A1")


def test_unimodularity():
    assert is_unimodular(catalog("sl2R"))["unimodular"]
    assert is_unimodular(catalog("3A1"))["unimodular"]
    rep = is_unimodular(catalog("A2.1+A1"))
    assert not rep["unimodular"]
    assert rep["traces"] == [F(0), F(-1), F(0)]


def test_series_degrees():
    assert solvability_degree(catalog("3A1")) == 1
    assert nilpotency_degree(catalog("3A1")) == 1
    assert solvability_degree(catalog("A2.1+A1")) == 2
    assert nilpotency_degree(catalog("A2.1+A1")) is None
    assert solvability_degree(catalog("A3.1")) == 2
    assert nilpotency_degree(catalog("A3.1")) == 2
    assert solvability_degree(catalog("A3.3")) == 2
    assert nilpotency_degree(catalog("A3.3")) is None
    assert solvability_degree(catalog("sl2R")) is None
    assert nilpotency_degree(catalog("so3")) is None
    assert nilpotency_degree(catalog("gF")) == 6
    assert nilpotency_degree(catalog("gE")) == 6


def test_derived_and_center_dimensions():
    assert derived_subalgebra(catalog("3A1")).dim == 0
    assert derived_subalgebra(catalog("A2.1+A1")).dim == 1
    assert derived_subalgebra(catalog("A3.3")).dim == 2
    assert derived_subalgebra(catalog("sl2R")).dim == 3
    assert center(catalog("3A1")).dim == 3
    assert center(catalog("A2.1+A1")).dim == 1
    assert center(catalog("A3.3")).dim == 0
    assert center(catalog("sl2R")).dim == 0
    assert center(catalog("gF")).dim == 1
    assert center(catalog("gE")).dim == 1


def test_killing_form_goldens():
    k = killing_form(catalog("sl2R"))
    assert k["matrix"] == KILLING_SL2R
    assert k["rank"] == 3
    assert k["signature"] == (2, 1, 0)
    k = killing_form(catalog("so3"))
    assert k["matrix"] == KILLING_SO3
    assert k["signature"] == (0, 3, 0)
    assert killing_form(catalog("3A1"))["rank"] == 0
    assert killing_form(catalog("A3.3"))["signature"] == (1, 0, 2)


def test_derivation_algebra_dimensions():
    assert len(derivation_algebra(catalog("3A1"))) == 9
    assert len(derivation_algebra(catalog("A3.1"))) == 6
    assert len(derivation_algebra(catalog("sl2R"))) == 3
    assert len(derivation_algebra(catalog("gF"))) == 10
    assert len(derivation_algebra(catalog("gE"))) == 11


def test_derivations_satisfy_leibniz():
    for name in ("A3.2", "sl2R", "gF", "gE"):
        c = catalog(name)
        n = c.dim
        for d in derivation_algebra(c):
            for i in range(n):
                for j in range(i + 1, n):
                    ei, ej = linalg.e_k(n, i), linalg.e_k(n, j)
                    lhs = linalg.mat_vec(d, bracket(c, ei, ej))
                    rhs = [x + y for x, y in zip(
                        bracket(c, linalg.mat_vec(d, ei), ej),
                        bracket(c, ei, linalg.mat_vec(d, ej)))]
                    assert lhs == rhs


def test_derivation_dimensions_match_sympy():
    # independent solve of D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] with sympy:
    # dim Der = n^2 - rank of the linear system in the n^2 entries of D
    sympy = pytest.importorskip("sympy")
    for name, expected in (("gF", 10), ("gE", 11)):
        c = catalog(name)
        n = c.dim
        C = [[sympy.Matrix([c.bracket_of(i, j).get(k, 0) for k in range(1, n + 1)])
              for j in range(1, n + 1)] for i in range(1, n + 1)]
        D = sympy.Matrix(n, n, sympy.symbols("d0:%d" % (n * n)))

        def br(x, y):
            return sum((x[a] * y[b] * C[a][b] for a in range(n) for b in range(n)),
                       sympy.zeros(n, 1))

        eqs = []
        for i in range(n):
            for j in range(i + 1, n):
                ei, ej = sympy.eye(n)[:, i], sympy.eye(n)[:, j]
                eqs.extend(D * C[i][j] - br(D * ei, ej) - br(ei, D * ej))
        A, _ = sympy.linear_eq_to_matrix(eqs, list(D))
        assert n * n - A.rank() == expected == len(derivation_algebra(c))


def test_nilpotent_matrix_algebra_checks():
    assert is_nilpotent_matrix_algebra(derivation_algebra(catalog("gF")))
    assert is_nilpotent_matrix_algebra(derivation_algebra(catalog("gE")))
    e11 = [[F(1), F(0)], [F(0), F(0)]]
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    e21 = [[F(0), F(0)], [F(1), F(0)]]
    assert not is_nilpotent_matrix_algebra([e11, e12])
    with pytest.raises(NotASubalgebraError):
        is_nilpotent_matrix_algebra([e12, e21])
    assert is_nilpotent_matrix_algebra([[[F(1), F(0)], [F(0), F(2)]]])
    assert is_nilpotent_matrix_algebra([e12])
    assert is_nilpotent_matrix_algebra([])


def test_invariants_stable_under_basis_change():
    rng = random.Random(13)
    for name, params in ALL_CATALOG:
        c = catalog(name, **params)
        if c.dim != 3:
            continue
        base = (
            derived_subalgebra(c).dim,
            center(c).dim,
            is_unimodular(c)["unimodular"],
            solvability_degree(c),
            nilpotency_degree(c),
            killing_form(c)["signature"],
        )
        for _ in range(5):
            u = rand_invertible(rng, 3)
            d = change_basis(c, u)
            assert (
                derived_subalgebra(d).dim,
                center(d).dim,
                is_unimodular(d)["unimodular"],
                solvability_degree(d),
                nilpotency_degree(d),
                killing_form(d)["signature"],
            ) == base, (name, params)


def test_subspace_membership():
    s = Subspace(3, [[F(1), F(1), F(0)], [F(0), F(0), F(1)]])
    assert s.dim == 2
    assert s.contains([F(2), F(2), F(5)])
    assert not s.contains([F(1), F(0), F(0)])
    assert s.coordinates_of([F(2), F(2), F(5)]) == [F(2), F(5)]
    g = full_space(3)
    assert span_of_brackets(catalog("A3.1"), g, g).basis == ((F(1), F(0), F(0)),)


def test_label_round_trips():
    assert parse_label("sl2R") == ("sl2R", {})
    assert parse_label("A3.4(a=1/2)") == ("A3.4", {"a": F(1, 2)})
    assert parse_label("A3.4(1/2)") == ("A3.4", {"a": F(1, 2)})
    assert parse_label("A3.5( b = 2 )") == ("A3.5", {"b": F(2)})
    assert make_label("A3.4", F(-1)) == "A3.4(a=-1)"
    assert make_label("sl2R") == "sl2R"
    with pytest.raises(InputFormatError):
        parse_label("sl2R(3)")
    with pytest.raises(InputFormatError):
        parse_label("(1)")
    assert resolve_algebra("A3.5(b=2)") == catalog("A3.5", b=2)
    assert set(CATALOG_NAMES) >= {"3A1", "sl2R", "so3", "gF", "gE"}


def test_tensor_json_round_trip():
    for name in ("sl2R", "gF"):
        c = catalog(name)
        assert StructureTensor.from_json(c.to_json()) == c
    with pytest.raises(InputFormatError):
        StructureTensor.from_json({"dim": 3, "brackets": [
            {"i": 2, "j": 1, "coeffs": {"1": "1"}}]})
    with pytest.raises(InputFormatError):
        StructureTensor.from_json({"brackets": []})
    good = {"i": 1, "j": 2, "coeffs": {"3": "1/10"}}
    assert (StructureTensor.from_json({"dim": 3, "brackets": [good]})
            == StructureTensor.from_brackets(3, {(1, 2): {3: F(1, 10)}}))
    for bad in ({**good, "i": "1", "j": "2"}, {**good, "i": 1.0},
                {**good, "j": True}, {**good, "coeffs": {"3": 0.1}},
                {**good, "coeffs": [["3", "1"]]}):
        with pytest.raises(InputFormatError):
            StructureTensor.from_json({"dim": 3, "brackets": [bad]})
    with pytest.raises(InputFormatError):
        StructureTensor.from_json({"dim": 3, "brackets": {"i": 1}})


def test_tensor_json_rejects_bool_dim():
    # bool is an int subclass, so true would otherwise read as dim 1
    for flag in (True, False):
        with pytest.raises(InputFormatError):
            StructureTensor.from_json({"dim": flag, "brackets": []})


def test_tensor_json_caps_the_dimension():
    check_json_dim(MAX_JSON_DIM)
    for dim in ("2", 2.0, 0, MAX_JSON_DIM + 1, 10 ** 9):
        with pytest.raises(InputFormatError):
            StructureTensor.from_json({"dim": dim, "brackets": []})
