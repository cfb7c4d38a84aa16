"""Expansion, zero reduction, subalgebra extraction, resonant decompositions.

The two full expansion tables and the nine-bracket reduced table in
support.py were worked out by hand from the defining product rule and are
compared entry for entry.
"""

from fractions import Fraction as F

import pytest

from liex.cli import ALL3_LABELS
from liex.errors import (
    InputFormatError,
    NotASemigroupError,
    NotASubalgebraError,
    NotReducibleError,
    NotResonantError,
)
from liex.expansion import (
    ResonanceSpec,
    extract_subalgebra,
    flat_index,
    parse_span,
    reduce_decomposition,
    resonant_reduction,
    resonant_span,
    resonant_subalgebra,
    s_expand,
    split_index,
    validate_resonance,
    zero_reduce,
)
from liex.liealg import (
    StructureTensor,
    Subspace,
    catalog,
    derived_subalgebra,
    full_space,
    is_unimodular,
    resolve_algebra,
    validate_lie,
)
from liex.search import semigroup_inventory
from liex.semigroup import S2, S3, TRIVIAL, SemigroupTable, enumerate_abelian_semigroups, zero_element
from support import GOLDEN_S2_SL2R, GOLDEN_S3_SL2R, GOLDEN_ZR_S3_SL2R, unit_rows


def test_flat_index_bijection():
    for order in (1, 2, 3):
        seen = []
        for i in range(1, 4):
            for a in range(1, order + 1):
                f = flat_index(i, a, order)
                assert split_index(f, order) == (i, a)
                seen.append(f)
        assert sorted(seen) == list(range(1, 3 * order + 1))


def test_expand_s2_table():
    ex = s_expand(S2, catalog("sl2R"))
    assert ex.dim == 6
    assert ex.nonzero_brackets() == GOLDEN_S2_SL2R


def test_expand_s3_table():
    ex = s_expand(S3, catalog("sl2R"))
    assert ex.dim == 9
    assert ex.nonzero_brackets() == GOLDEN_S3_SL2R


def test_expand_by_trivial_semigroup_is_identity():
    for name in ("A2.1+A1", "sl2R", "gE"):
        c = catalog(name)
        assert s_expand(TRIVIAL, c) == c


def test_expand_rejects_broken_table():
    with pytest.raises(NotASemigroupError):
        s_expand(SemigroupTable([[2, 2], [2, 1]]), catalog("3A1"))


def test_zero_reduce_collapses_s2():
    red = zero_reduce(S2, catalog("sl2R"))
    assert red.dim == 3
    assert red == catalog("3A1")


def test_zero_reduce_of_abelian_is_abelian():
    red = zero_reduce(S3, catalog("3A1"))
    assert red.dim == 6
    assert red == StructureTensor.from_brackets(6, {})


def test_zero_reduce_s3_table():
    red = zero_reduce(S3, catalog("sl2R"))
    assert red.dim == 6
    assert red.nonzero_brackets() == GOLDEN_ZR_S3_SL2R


def test_zero_reduce_needs_a_zero():
    z2 = SemigroupTable([[1, 2], [2, 1]])
    from liex.errors import NoZeroElementError
    with pytest.raises(NoZeroElementError):
        zero_reduce(z2, catalog("3A1"))


def test_extract_closed_span_of_s2_expansion():
    ex = s_expand(S2, catalog("sl2R"))
    sub = extract_subalgebra(ex, unit_rows(6, (0, 1, 2)))
    assert sub.nonzero_brackets() == [(1, 3, {2: F(1)}), (2, 3, {2: F(1)})]


def test_extract_recovers_catalog_class():
    ex = s_expand(S3, catalog("sl2R"))
    sub = extract_subalgebra(ex, unit_rows(9, (0, 1, 5)))
    assert sub == catalog("A3.3")


def test_extract_rejects_open_span():
    ex = s_expand(S2, catalog("sl2R"))
    with pytest.raises(NotASubalgebraError) as ei:
        extract_subalgebra(ex, unit_rows(6, (0, 4)))
    assert ei.value.witness["pair"] == [1, 2]


def test_reduce_with_zero_hatted_part_is_identity():
    c = catalog("sl2R")
    assert reduce_decomposition(c, full_space(3), Subspace(3, [])) == c


def test_reduce_matches_zero_reduce():
    # every class of semigroups with a zero up to order 3, as enumerated
    # (zero at index 1) and reversed (zero at the last index), times every
    # class of all3
    classes = [s for order in (1, 2, 3) for s in enumerate_abelian_semigroups(order)
               if zero_element(s) is not None]
    assert len(classes) == 1 + 2 + 8
    with_zero = classes + [s.relabel(range(s.order, 0, -1))
                           for s in classes if s.order > 1]
    for label in ALL3_LABELS:
        c = resolve_algebra(label)
        for s in with_zero:
            z, d = zero_element(s), c.dim * s.order
            keep = [f - 1 for f in range(1, d + 1) if split_index(f, s.order)[1] != z]
            cut = [f - 1 for f in range(1, d + 1) if split_index(f, s.order)[1] == z]
            red = reduce_decomposition(s_expand(s, c), unit_rows(d, keep),
                                       unit_rows(d, cut))
            assert red == zero_reduce(s, c), (label, s)


def test_expansions_are_lie_with_derived_algebra_ss_times_gg():
    # every class up to order 3 times every all3 source: S x g satisfies
    # Jacobi, and its derived algebra is spanned by lambda_ab [x, y], that
    # is (SS) x [g, g]
    classes = [s for order in (1, 2, 3) for s in enumerate_abelian_semigroups(order)]
    for label in ALL3_LABELS:
        c = resolve_algebra(label)
        gg = derived_subalgebra(c)
        for s in classes:
            ex = s_expand(s, c)
            assert validate_lie(ex)["ok"], (label, s)
            elems = range(1, s.order + 1)
            lifts = []
            for g in sorted({s.product(a, b) for a in elems for b in elems}):
                for v in gg.basis:
                    w = [F(0)] * ex.dim
                    for i, x in enumerate(v, 1):
                        w[flat_index(i, g, s.order) - 1] = x
                    lifts.append(w)
            assert derived_subalgebra(ex) == Subspace(ex.dim, lifts), (label, s)


def test_reduce_two_dim_quotient():
    red = reduce_decomposition(catalog("A2.1+A1"),
                               unit_rows(3, (0, 1)), unit_rows(3, (2,)))
    assert red == StructureTensor.from_brackets(2, {(1, 2): {1: 1}})


def test_reduce_rejects_bad_decompositions():
    c = catalog("sl2R")
    with pytest.raises(NotReducibleError):
        reduce_decomposition(c, unit_rows(3, (0, 1)), unit_rows(3, (2,)))
    with pytest.raises(NotReducibleError):
        reduce_decomposition(catalog("3A1"), unit_rows(3, (0,)), unit_rows(3, (2,)))
    with pytest.raises(NotReducibleError):
        reduce_decomposition(catalog("3A1"),
                             unit_rows(3, (0, 1)), unit_rows(3, (0, 2)))


def whole_space_spec(s, c, partitions=None):
    sets = {0: range(1, s.order + 1)}
    blocks = {0: range(1, c.dim + 1)}
    if partitions is not None:
        return ResonanceSpec(blocks, sets, {(0, 0): {0}}, partitions)
    return ResonanceSpec(blocks, sets, {(0, 0): {0}})


def test_single_block_resonance_is_whole_expansion():
    c = catalog("sl2R")
    spec = whole_space_spec(S3, c)
    rep = validate_resonance(S3, c, spec)
    assert rep["ok"]
    assert resonant_subalgebra(S3, c, spec) == s_expand(S3, c)


def test_two_block_resonance():
    c = catalog("sl2R")
    spec = ResonanceSpec(
        blocks={0: [2], 1: [1, 3]},
        sets={0: {1, 3}, 1: {1, 2}},
        targets={(0, 0): {0}, (1, 1): {0}, (0, 1): {1}},
    )
    rep = validate_resonance(S3, c, spec)
    assert rep["ok"], rep
    sub = resonant_subalgebra(S3, c, spec)
    assert sub.dim == 6
    assert validate_lie(sub)["ok"]
    span = resonant_span(S3, c, spec)
    assert len(set(span)) == len(span) == 6
    # lambda_2 e_2 is not in the carrier, lambda_2 e_1 is
    assert unit_rows(9, (flat_index(2, 2, 3) - 1,))[0] not in span
    assert unit_rows(9, (flat_index(1, 2, 3) - 1,))[0] in span


def test_resonance_product_violation():
    c = catalog("sl2R")
    spec = ResonanceSpec(
        blocks={0: [2], 1: [1, 3]},
        sets={0: {3}, 1: {1, 2}},
        targets={(0, 0): {0}, (1, 1): {0}, (0, 1): {1}},
    )
    rep = validate_resonance(S3, c, spec)
    assert not rep["ok"]
    assert (1, 1, 2, 2) in rep["product_condition"]
    with pytest.raises(NotResonantError):
        resonant_subalgebra(S3, c, spec)


def test_resonant_reduction_matches_zero_reduce():
    c = catalog("sl2R")
    spec = whole_space_spec(S3, c, partitions={0: ({2, 3}, {1})})
    assert resonant_reduction(S3, c, spec) == zero_reduce(S3, c)


def test_resonant_reduction_needs_partitions():
    c = catalog("sl2R")
    with pytest.raises(InputFormatError):
        resonant_reduction(S3, c, whole_space_spec(S3, c))


def test_resonance_spec_validation():
    c = catalog("sl2R")
    with pytest.raises(InputFormatError):
        ResonanceSpec({0: [1, 2, 3]}, {0: {1, 2, 3}, 1: {1}}, {(0, 0): {0}})
    with pytest.raises(InputFormatError):
        ResonanceSpec({0: [1, 2, 3]}, {0: {1, 2, 3}}, {})
    with pytest.raises(InputFormatError):
        ResonanceSpec({0: [1, 2, 3]}, {0: {1, 2, 3}}, {(0, 0): {5}})
    with pytest.raises(InputFormatError):
        whole_space_spec(S3, c, partitions={0: ({1, 2}, {2, 3})})
    # basis and semigroup indices are checked against g and S
    for blocks, sets in (({0: [1, 2, 4]}, {0: {1, 2, 3}}),
                         ({0: [0, 1, 2, 3]}, {0: {1, 2, 3}}),
                         ({0: [1, 2, 3]}, {0: {1, 2, 4}})):
        with pytest.raises(InputFormatError):
            validate_resonance(S3, c, ResonanceSpec(blocks, sets, {(0, 0): {0}}))


def test_parse_span():
    assert parse_span("E1,E2-E3,2E4", 6) == [
        [F(1), F(0), F(0), F(0), F(0), F(0)],
        [F(0), F(1), F(-1), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(2), F(0), F(0)],
    ]
    assert parse_span("E1+E1", 2) == [[F(2), F(0)]]
    assert parse_span("3/2E2", 2) == [[F(0), F(3, 2)]]
    assert parse_span("-E2", 2) == [[F(0), F(-1)]]
    for bad in ("E7", "x", "", "E1,,E2", "E1*E2"):
        with pytest.raises(InputFormatError):
            parse_span(bad, 6)


def test_expansion_property_grid():
    # S x g and its 0_S-reduction satisfy Jacobi for every Abelian S
    # (Izaurieta, Rodriguez and Salgado, J. Math. Phys. 47 (2006) 123512).
    # Expansion relies on this and does not re-check it, so it is checked
    # here: every class of order at most 4 times every all3 source.
    algebras = [resolve_algebra(label) for label in ALL3_LABELS]
    for s, _ in semigroup_inventory(4):
        for c in algebras:
            ex = s_expand(s, c)
            assert ex.dim == c.dim * s.order
            assert validate_lie(ex)["ok"]
            if is_unimodular(c)["unimodular"]:
                assert is_unimodular(ex)["unimodular"]
            if zero_element(s) is not None:
                red = zero_reduce(s, c)
                assert red.dim == c.dim * (s.order - 1)
                assert validate_lie(red)["ok"]
