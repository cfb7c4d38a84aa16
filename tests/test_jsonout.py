"""The CLI's JSON writer against json.dumps(obj, indent=2), the text it
must reproduce byte for byte."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liex import jsonout
from liex.jsonout import write_json


def dumps(obj):
    chunks = []
    write_json(obj, chunks.append)
    return "".join(chunks)


# strings that stress the escaper: non-ASCII (in and beyond the BMP),
# quotes, backslashes, control characters and a lone surrogate
TRICKY = ["", "\"", "\\", "\n\t\r\x00\x1f\x7f", "é", " ", "\U0001f600",
          "\ud800", "a\"b\\c", "1", "-0", "null"]
texts = st.one_of(st.text(), st.sampled_from(TRICKY))
ints = st.one_of(st.integers(), st.integers(-2 ** 80, 2 ** 80),
                 st.sampled_from([0, -1, 2 ** 63, -2 ** 63 - 1]))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
        # the rows the writer joins in one go, and near misses of them
        st.lists(texts, max_size=6),
        st.lists(ints, max_size=6),
        st.lists(st.one_of(st.booleans(), ints), max_size=6),
        st.lists(st.one_of(texts, ints), max_size=6),
    ),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(values)
def test_matches_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}]},
    [True, 1], ["1", 1], [1, True], [False, 0, None], [None],
    [-1, 2 ** 200, -2 ** 200], {"é\n\"": ["\\", "\x00"]},
])
def test_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_shared_parts_render_like_copies():
    # the same objects at one depth and at several, as search output
    # shares its semigroups, basis changes and span vectors
    row = ["0", "1", "é"]
    table = {"order": 2, "table": [[2, 2], [2, 2]]}
    change = [row, row, ["1", "0", "0"]]
    witness = {"semigroup": table, "span": [row, row], "basis_change": change}
    obj = {"witnesses": [witness, dict(witness), witness, {"deeper": [witness]}],
           "again": [change, table, [[change]]], "row": row}
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_writes_bounded_chunks():
    obj = {"witnesses": [{"span": [[str(i)] * 12] * 3} for i in range(3000)]}
    chunks = []
    write_json(obj, chunks.append)
    assert "".join(chunks) == json.dumps(obj, indent=2)
    assert len(chunks) > 1
    assert max(map(len, chunks)) < 2 * jsonout._CHUNK


@pytest.mark.parametrize("bad", [
    Fraction(1, 2), 0.5, 1.0, float("nan"), {"x": [1, 2.5]}, [[Fraction(1)]],
    ["1", Fraction(1)], {"x": {3}}, {1: "one"}, {"a": {None: 1}},
])
def test_other_values_raise_type_error(bad):
    with pytest.raises(TypeError):
        dumps(bad)
