"""Laurent-parametric frames and exact limits of structure constants."""

import random
from fractions import Fraction as F

import pytest

from liex import linalg
from liex.contraction import (
    U_FE,
    Divergent,
    LaurentBasisFamily,
    LaurentPoly,
    family_adjugate,
    limit,
    resolve_family,
    transform_parametric,
    verify_contraction,
)
from liex.errors import InputFormatError
from liex.liealg import (MAX_JSON_DIM, catalog, change_basis, is_unimodular,
                         validate_lie)
from liex.identify import identify3
from support import rand_invertible


def test_laurent_poly_arithmetic():
    p = LaurentPoly({1: F(1), 0: F(2)})        # 2 + eps
    q = LaurentPoly.monomial(-1)               # eps^-1
    assert (p * q).terms == {0: F(1), -1: F(2)}
    assert (p + q).terms == {1: F(1), 0: F(2), -1: F(1)}
    assert (p - p).terms == {}
    assert (-q).terms == {-1: F(-1)}
    assert p * 3 == LaurentPoly({1: F(3), 0: F(6)})
    assert p.valuation() == 0 and (p * q).valuation() == -1
    assert LaurentPoly().valuation() is None
    assert not LaurentPoly({0: 0})
    assert LaurentPoly.const(5).coeff(0) == 5


def test_laurent_poly_json():
    p = LaurentPoly({-2: F(1, 3), 4: F(-7)})
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.to_json() == {"-2": "1/3", "4": "-7"}
    with pytest.raises(InputFormatError):
        LaurentPoly.from_json({"x": "1"})
    # JSON floats are binary fractions, so they are refused
    with pytest.raises(InputFormatError):
        LaurentPoly.from_json({"0": 0.1})
    assert LaurentPoly.from_json({"0": "1/10"}) == LaurentPoly.const(F(1, 10))


def test_identity_family_is_no_op():
    for name in ("sl2R", "gF"):
        c = catalog(name)
        fam = LaurentBasisFamily.diagonal_powers([0] * c.dim)
        assert limit(transform_parametric(c, fam)) == c


def test_bundled_seven_dim_contraction():
    pt = transform_parametric(catalog("gF"), U_FE)
    # every constant num/det has valuation v(num) - v(det); the mirror
    # (j, i, k) of a stored (i, j, k) has the same one
    for row in pt.rows.values():
        for _, x in row:
            assert x.valuation() - pt.det.valuation() >= 0
    assert limit(pt) == catalog("gE")
    rep = verify_contraction(catalog("gF"), U_FE, "gE")
    assert rep["ok"] and rep["identified"] == "gE"
    assert resolve_family("UFE") is U_FE
    with pytest.raises(InputFormatError):
        resolve_family("nope")


def test_uniform_scaling_contracts_to_abelian():
    pt = transform_parametric(catalog("sl2R"), LaurentBasisFamily.diagonal_powers([1, 1, 1]))
    assert pt.rows
    for row in pt.rows.values():
        for _, x in row:
            assert x.valuation() - pt.det.valuation() >= 1
    assert limit(pt) == catalog("3A1")


def test_partial_scaling_lands_on_continuous_family():
    fam = LaurentBasisFamily.diagonal_powers([1, 0, 1])
    lim = limit(transform_parametric(catalog("sl2R"), fam))
    r = identify3(lim)
    assert (r.label, r.param) == ("A3.4", F(-1))
    rep = verify_contraction(catalog("sl2R"), fam, "A3.4(a=-1)")
    assert rep["ok"] and rep["identified"] == "A3.4(a=-1)"
    # wrong target label is reported, not raised
    rep = verify_contraction(catalog("sl2R"), fam, "A3.3")
    assert not rep["ok"] and rep["identified"] == "A3.4(a=-1)"


def test_divergent_limit_is_a_marker():
    fam = LaurentBasisFamily.diagonal_powers([-1, 0, 0])
    lim = limit(transform_parametric(catalog("sl2R"), fam))
    assert lim == Divergent(1, 3, 2, -1)
    assert lim.to_json() == {
        "divergent": {"i": 1, "j": 3, "k": 2, "valuation": -1}}
    rep = verify_contraction(catalog("sl2R"), fam, "3A1")
    assert rep["ok"] is False and rep["divergent"]["i"] == 1
    assert "limit" not in rep


def test_constant_family_matches_change_basis():
    rng = random.Random(31)
    for name in ("A3.2", "sl2R"):
        c = catalog(name)
        for _ in range(5):
            b = rand_invertible(rng, 3)
            fam = LaurentBasisFamily(3, [[LaurentPoly.const(x) for x in row]
                                         for row in b])
            assert limit(transform_parametric(c, fam)) == change_basis(
                c, linalg.transpose(b))


def test_diagonal_family_grid_preserves_unimodularity():
    rng = random.Random(32)
    for name in ("sl2R", "so3", "gF"):
        c = catalog(name)
        for _ in range(6):
            exps = [rng.randrange(0, 3) for _ in range(c.dim)]
            lim = limit(transform_parametric(
                c, LaurentBasisFamily.diagonal_powers(exps)))
            if isinstance(lim, Divergent):
                continue
            assert validate_lie(lim)["ok"]
            assert is_unimodular(lim)["unimodular"]


def test_family_json_round_trip():
    blob = U_FE.to_json()
    fam = LaurentBasisFamily.from_json(blob)
    assert fam.dim == 7 and fam.entries == U_FE.entries
    assert fam.to_json() == blob
    with pytest.raises(InputFormatError):
        LaurentBasisFamily.from_json({"dim": 2, "entries": {"x": {"0": "1"}}})
    with pytest.raises(InputFormatError):
        LaurentBasisFamily.from_json({"dim": 2, "entries": {"3,1": {"0": "1"}}})
    with pytest.raises(InputFormatError):
        LaurentBasisFamily.from_json({"entries": {}})
    for dim in ("2", 2.0, True, 0, MAX_JSON_DIM + 1):
        with pytest.raises(InputFormatError):
            LaurentBasisFamily.from_json({"dim": dim, "entries": {}})
    with pytest.raises(InputFormatError):
        LaurentBasisFamily.from_json({"dim": 2, "entries": [["1,1", {"0": "1"}]]})
    with pytest.raises(InputFormatError):
        LaurentBasisFamily.from_json({"dim": 2, "entries": {"1,1": {"0": 0.5}}})


def test_family_determinant():
    assert family_adjugate(U_FE)[0] == LaurentPoly.monomial(34)
    degenerate = LaurentBasisFamily(2, [[LaurentPoly.const(1), LaurentPoly.const(1)],
                                        [LaurentPoly.const(1), LaurentPoly.const(1)]])
    assert not family_adjugate(degenerate)[0]
    with pytest.raises(InputFormatError):
        transform_parametric(catalog("3A1"), LaurentBasisFamily(3, [
            [LaurentPoly()] * 3 for _ in range(3)]))
    with pytest.raises(InputFormatError):
        transform_parametric(catalog("3A1"), LaurentBasisFamily.diagonal_powers([1, 1]))
