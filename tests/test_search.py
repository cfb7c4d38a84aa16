"""Connection search: frozen witness counts, replay, connectivity reports.

The witness and candidate counts below are regression values: they were
produced by this code, inspected by hand (the named spans match worked
examples checked in test_expansion), and frozen.  A change in any of them
means the enumeration or the classifier changed behavior.
"""

import dataclasses
from collections import Counter
from itertools import combinations, product as iproduct

import pytest

from liex import expansion, linalg, search, semigroup
from liex.errors import InputFormatError, NotALieAlgebraError
from liex.expansion import (ResonanceSpec, extract_subalgebra, resonant_span,
                            s_expand, split_index, validate_resonance)
from liex.liealg import (StructureTensor, bracket, catalog, change_basis,
                         resolve_algebra)
from liex.search import (
    DD_BY_LABEL,
    SearchResult,
    clear_caches,
    connectivity_matrix,
    connectivity_to_dot,
    connectivity_to_json,
    find_connection,
    replay,
    scan_3dim_subalgebras,
    semigroup_inventory,
)
from liex.semigroup import SemigroupTable
from support import unit_rows


ALL_MODES = ("subalgebra", "zero_reduce", "resonant")
ALL3 = ("3A1", "A2.1+A1", "A3.1", "A3.2", "A3.3", "A3.4(a=1/2)", "A3.5(b=1)",
        "sl2R", "so3")


def spans_of(res):
    return {(w.semigroup_name, w.span) for w in res.witnesses}


def test_semigroup_inventory_counts_and_naming():
    inv = semigroup_inventory(3)
    assert len(inv) == 1 + 3 + 12
    names = [name for _, name in inv if name]
    assert names == ["S2", "S3"]
    assert all(s.order <= 3 for s, _ in inv)


def test_scan_of_three_dim_algebra_is_the_algebra():
    records, examined = scan_3dim_subalgebras(catalog("sl2R"))
    assert examined == 1 and len(records) == 1
    gens, dd, tensor = records[0]
    assert gens == unit_rows(3, (0, 1, 2))
    assert dd == 3 and tensor == catalog("sl2R")


def test_subalgebra_search_order2():
    res = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2)
    assert len(res.witnesses) == 10
    assert res.space == {"semigroups": 4, "subalgebra_candidates": 61}
    assert ("S2", unit_rows(6, (0, 1, 2))) in spans_of(res)
    assert res.found() and res.max_order == 2
    for w in res.witnesses:
        assert replay(catalog("sl2R"), w)


def test_subalgebra_search_order3():
    res = find_connection(catalog("sl2R"), "A3.3", max_order=3)
    assert len(res.witnesses) == 54
    assert res.space == {"semigroups": 16, "subalgebra_candidates": 1069}
    assert ("S3", unit_rows(9, (0, 1, 5))) in spans_of(res)

    res = find_connection(catalog("A2.1+A1"), "A3.3", max_order=3)
    assert len(res.witnesses) == 27
    assert ("S3", unit_rows(9, (0, 1, 5))) in spans_of(res)

    res = find_connection(catalog("A3.3"), "A2.1+A1", max_order=2)
    assert len(res.witnesses) == 10
    assert ("S2", unit_rows(6, (0, 1, 5))) in spans_of(res)
    for w in res.witnesses:
        assert replay(catalog("A3.3"), w)


def test_search_is_deterministic():
    a = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2)
    b = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2)
    assert a == b
    assert a.to_json() == b.to_json()


def test_zero_reduce_search():
    res = find_connection(catalog("sl2R"), "A2.1+A1", max_order=3,
                          modes=("zero_reduce",))
    assert len(res.witnesses) == 30
    assert res.space == {"semigroups": 16, "zero_reduce_candidates": 162}
    for w in res.witnesses[:5]:
        assert w.mode == "zero_reduce"
        assert replay(catalog("sl2R"), w)

    res = find_connection(catalog("sl2R"), "3A1", max_order=2,
                          modes=("zero_reduce",))
    assert len(res.witnesses) == 1
    assert res.space == {"semigroups": 4, "zero_reduce_candidates": 2}
    assert replay(catalog("sl2R"), res.witnesses[0])


def test_resonant_search():
    res = find_connection(catalog("sl2R"), "A3.3", max_order=3,
                          modes=("resonant",))
    assert len(res.witnesses) == 18
    assert res.space["semigroups"] == 16
    assert res.space["resonant_candidates"] == 8914
    for w in res.witnesses[:5]:
        assert w.mode == "resonant"
        assert set(w.resonance) == {"blocks", "sets", "targets"}
        spec = ResonanceSpec.from_json(w.resonance, 3, w.semigroup.order)
        assert spec.to_json() == w.resonance
        assert replay(catalog("sl2R"), w)

    res = find_connection(catalog("A2.1+A1"), "A3.3", max_order=3,
                          modes=("resonant",))
    assert len(res.witnesses) == 9

    res = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2,
                          modes=("resonant",))
    assert len(res.witnesses) == 10
    assert any(w.semigroup_name == "S2" for w in res.witnesses)


# The partition x cover enumerator that resonant mode used before it became
# a filter on the coordinate scan, kept as the reference.

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _index_subsets(n):
    full = list(range(1, n + 1))
    return [frozenset(c) for r in range(n + 1) for c in combinations(full, r)]


def _reference_decompositions(s, c):
    """(spec, meta) for every decomposition whose resonant subalgebra is
    3-dim, in partition-then-cover order, and the number examined."""
    n, N = c.dim, s.order
    full = frozenset(range(1, N + 1))
    examined = 0
    specs = []
    for blocks in _set_partitions(list(range(1, n + 1))):
        blocks = sorted(sorted(bl) for bl in blocks)
        k = len(blocks)
        tmin = {}
        for p in range(k):
            for q in range(k):
                touched = {t + 1 for i in blocks[p] for j in blocks[q]
                           for t, x in enumerate(bracket(c, linalg.e_k(n, i - 1),
                                                         linalg.e_k(n, j - 1)))
                           if x}
                tmin[(p, q)] = frozenset(
                    r for r in range(k) if touched & set(blocks[r]))
        for cover in iproduct(_index_subsets(N), repeat=k):
            examined += 1
            if frozenset().union(*cover) != full:
                continue
            if sum(len(cover[p]) * len(blocks[p]) for p in range(k)) != 3:
                continue
            if any(s.product(al, be) not in cover[r]
                   for (p, q), rs in tmin.items() for r in rs
                   for al in cover[p] for be in cover[q]):
                continue
            specs.append((ResonanceSpec(dict(enumerate(blocks)), dict(enumerate(cover)),
                                        tmin),
                          {"blocks": blocks,
                           "sets": [sorted(cover[p]) for p in range(k)],
                           "targets": {"%d,%d" % (p + 1, q + 1):
                                       sorted(x + 1 for x in tmin[(p, q)])
                                       for p in range(k) for q in range(k)}}))
    return specs, examined


def _reference_resonant_search(source, max_order):
    """Every identified resonant witness, with the first decomposition found
    for each span, and the number of decompositions examined."""
    witnesses, examined = [], 0
    for s, sname in semigroup_inventory(max_order):
        if s.order > search.RESONANT_ORDER_BOUND:
            continue
        specs, ex = _reference_decompositions(s, source)
        examined += ex
        expanded = s_expand(s, source)
        seen = set()
        for spec, meta in specs:
            span = resonant_span(s, source, spec)
            if span in seen:
                continue
            seen.add(span)
            if not validate_resonance(s, source, spec)["ok"]:
                continue
            ident = search._identify_or_none(extract_subalgebra(expanded, span))
            if ident is not None:
                witnesses.append(search.Witness(
                    s, sname, "resonant", span, meta, ident.label, ident.param,
                    ident.witness))
    return witnesses, examined


@pytest.mark.parametrize("src", ["sl2R", "A2.1+A1", "so3"])
def test_resonant_search_matches_reference_enumerator(src):
    source = resolve_algebra(src)
    ref, examined = _reference_resonant_search(source, 3)
    got = []
    for dst in ALL3:
        res = find_connection(source, dst, max_order=3, modes=("resonant",))
        assert res.space == {"semigroups": 16, "resonant_candidates": examined}
        got.extend(res.witnesses)
    wants = {search._target_key(lab) for lab in ALL3}
    ref = [w for w in ref if (w.label, w.param) in wants]
    assert got
    assert Counter(repr(w.to_json()) for w in got) \
        == Counter(repr(w.to_json()) for w in ref)


def test_resonant_witnesses_are_covering_subalgebra_witnesses():
    """Resonant witnesses are the subalgebra witnesses, in scan order, whose
    spans' semigroup indices cover S; only mode and resonance differ."""
    wants = {search._target_key(lab) for lab in ALL3}
    total = 0
    for src in ALL3:
        source = resolve_algebra(src)
        found, _ = search._search(source, 3, ("subalgebra", "resonant"), wants)
        sub = [w for w in found if w.mode == "subalgebra"]
        res = [w for w in found if w.mode == "resonant"]

        def covers(w):
            order = w.semigroup.order
            return {split_index(v.index(1) + 1, order)[1] for v in w.span} \
                == set(range(1, order + 1))

        covering = [w for w in sub if covers(w)]
        assert len(covering) == len(res), src
        assert [dataclasses.replace(w, mode="resonant", resonance=r.resonance)
                for w, r in zip(covering, res)] == res, src
        # the search records the coarsest decomposition unchecked; each one
        # meets every resonance condition
        for w in res:
            spec = ResonanceSpec.from_json(w.resonance, source.dim,
                                           w.semigroup.order)
            assert validate_resonance(w.semigroup, source, spec)["ok"], src
        total += len(res)
    assert total == 1726


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_decomposition_count_closed_form(n, order):
    brute = sum(1 for blocks in _set_partitions(list(range(n)))
                for _ in iproduct(_index_subsets(order), repeat=len(blocks)))
    assert search._decompositions(n, order) == brute


def test_resonant_search_scales_past_the_cover_loop():
    # the partition x cover loop examined all 1,081,122 decompositions of gF
    gf = resolve_algebra("gF")
    res = find_connection(gf, "A3.1", max_order=2, modes=("resonant",))
    assert res.space == {"semigroups": 4, "resonant_candidates": 1081122}
    assert len(res.witnesses) == 45
    for w in res.witnesses:
        assert replay(gf, w)


def test_negative_searches_are_empty():
    for src in ("sl2R", "so3"):
        for target in ("A3.2", "A3.4(a=1/2)", "A3.5(b=1)"):
            res = find_connection(catalog(src), target, max_order=3,
                                  modes=("subalgebra", "zero_reduce"))
            assert not res.found(), (src, target)
            assert res.witnesses == ()


def test_replay_rejects_tampered_witnesses():
    res = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2)
    w = res.witnesses[0]
    assert not replay(catalog("sl2R"), dataclasses.replace(w, mode="bogus"))
    assert not replay(catalog("sl2R"), dataclasses.replace(w, label="A3.2"))
    open_span = unit_rows(6, (0, 4, 2))
    assert not replay(catalog("sl2R"), dataclasses.replace(w, span=open_span))
    assert not replay(catalog("sl2R"), dataclasses.replace(w, span=None))
    assert not replay(catalog("sl2R"), dataclasses.replace(w, basis_change=((1, 2),)))
    singular = ((0, 0, 0),) * 3
    assert not replay(catalog("sl2R"), dataclasses.replace(w, basis_change=singular))
    # a witness for the wrong source algebra fails too
    assert not replay(catalog("so3"), w)
    # a tampered semigroup table or a zero-less semigroup is refused, not raised
    non_associative = SemigroupTable([[2, 1], [1, 1]])
    assert not replay(catalog("sl2R"),
                      dataclasses.replace(w, semigroup=non_associative))
    z2 = SemigroupTable([[1, 2], [2, 1]])
    assert not replay(catalog("sl2R"),
                      dataclasses.replace(w, mode="zero_reduce", semigroup=z2))

    # a resonant witness must name a resonant decomposition of its own span
    sl2r = catalog("sl2R")
    res = find_connection(sl2r, "A3.3", max_order=3, modes=("resonant",))
    w = next(w for w in res.witnesses if w.resonance["sets"] == [[], [2], [1, 2]])
    assert replay(sl2r, w)

    def tampered(**changes):
        return dataclasses.replace(w, resonance={**w.resonance, **changes})

    assert not replay(sl2r, dataclasses.replace(w, resonance=None))
    # still resonant, but its span is not the witness span
    assert not replay(sl2r, tampered(sets=[[], [1], [1, 2]]))
    # [e2, e3] = e3 does not land in an empty target
    assert not replay(sl2r, tampered(targets={**w.resonance["targets"], "2,3": []}))
    # blocks that overlap, miss an index or repeat one are no direct sum
    for blocks in ([[1], [1, 2], [3]], [[1], [2], []], [[1], [2, 2], [3]]):
        assert not replay(sl2r, tampered(blocks=blocks)), blocks
    # malformed metadata
    for bad in ({"blocks": [[0], [2], [3]]}, {"blocks": [["1"], [2], [3]]},
                {"blocks": [[1], [2]]}, {"sets": [[], [True], [1, 2]]},
                {"sets": [[], [2], [1, 5]]}, {"targets": {"x": []}},
                {"targets": {"1,4": [1]}}, {"targets": []}):
        assert not replay(sl2r, tampered(**bad)), bad
    for bad in ({}, "junk", {"blocks": [[1, 2, 3]]}):
        assert not replay(sl2r, dataclasses.replace(w, resonance=bad)), bad
    assert not replay(sl2r, dataclasses.replace(w, semigroup=non_associative))


def test_replay_surfaces_internal_errors(monkeypatch):
    w = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2).witnesses[0]

    def broken(ambient, span):
        raise AssertionError("internal invariant broken")

    monkeypatch.setattr(search, "extract_subalgebra", broken)
    with pytest.raises(AssertionError):
        replay(catalog("sl2R"), w)


def test_witness_json_shape():
    res = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2)
    blob = res.to_json()
    assert blob["found"] and blob["max_order"] == 2
    assert blob["modes"] == ["subalgebra"]
    first = blob["witnesses"][0]
    assert first["label"] == "A2.1+A1"
    assert first["semigroup"]["order"] >= 2
    assert all(isinstance(x, str) for row in first["basis_change"] for x in row)


def test_witness_json_builds_repeated_parts_once():
    res = find_connection(catalog("sl2R"), "A2.1+A1", max_order=3)
    blob = res.to_json()["witnesses"]
    assert blob == [w.to_json() for w in res.witnesses]
    semigroups, changes, vectors = {}, {}, {}
    for w, wj in zip(res.witnesses, blob):
        assert semigroups.setdefault(id(w.semigroup), wj["semigroup"]) \
            is wj["semigroup"]
        assert changes.setdefault(id(w.basis_change), wj["basis_change"]) \
            is wj["basis_change"]
        for v in wj["span"]:
            assert vectors.setdefault(tuple(v), v) is v
    assert len(semigroups) < len(blob) and len(changes) < len(blob)


def test_search_input_guards():
    with pytest.raises(InputFormatError):
        find_connection(catalog("sl2R"), "A2.1+A1", modes=("bogus",))
    with pytest.raises(InputFormatError):
        find_connection(catalog("sl2R"), "gE")
    with pytest.raises(InputFormatError):
        find_connection(catalog("sl2R"), "A2.1+A1",
                        pre_change=[[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert set(DD_BY_LABEL) == {"3A1", "A2.1+A1", "A3.1", "A3.2", "A3.3",
                                "A3.4", "A3.5", "sl2R", "so3"}


def test_pre_change_does_not_affect_canonical_source():
    base = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2)
    via = find_connection(catalog("sl2R"), "A2.1+A1", max_order=2,
                          pre_change=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert via == base


def test_connectivity_matrix():
    rep = connectivity_matrix(["sl2R", "A2.1+A1", "A3.3"], max_order=2)
    edges = rep["edges"]
    for lab in rep["labels"]:
        assert edges[(lab, lab)]["found"], lab
    assert edges[("sl2R", "A2.1+A1")]["found"]
    assert edges[("sl2R", "A3.3")]["found"]
    assert edges[("A2.1+A1", "A3.3")]["found"]
    assert edges[("A3.3", "A2.1+A1")]["found"]
    assert not edges[("A2.1+A1", "sl2R")]["found"]
    assert not edges[("A3.3", "sl2R")]["found"]
    assert edges[("sl2R", "A2.1+A1")]["witness"]["semigroup_name"] == "S2"

    single = connectivity_matrix(["sl2R"], max_order=1)
    assert single["edges"][("sl2R", "sl2R")]["found"]

    rep2 = connectivity_matrix(["sl2R", "A3.2"], max_order=2)
    assert not rep2["edges"][("sl2R", "A3.2")]["found"]
    assert not rep2["edges"][("A3.2", "sl2R")]["found"]


def test_connectivity_matches_per_edge_search():
    labels = ["sl2R", "A3.3", "so3", "A2.1+A1"]
    rep = connectivity_matrix(labels, max_order=2, modes=ALL_MODES)
    found = 0
    for src in labels:
        for dst in labels:
            res = find_connection(resolve_algebra(src), dst, max_order=2,
                                  modes=ALL_MODES)
            entry = rep["edges"][(src, dst)]
            assert entry["found"] == res.found(), (src, dst)
            assert entry["space"] == res.space, (src, dst)
            if res.found():
                found += 1
                assert entry["witness"] == res.witnesses[0].to_json(), (src, dst)
            else:
                assert "witness" not in entry, (src, dst)
    assert 4 < found < 16
    # every edge owns its space dict
    assert len({id(e["space"]) for e in rep["edges"].values()}) == 16


def test_one_expansion_per_source_and_semigroup(monkeypatch):
    n3 = len(semigroup_inventory(3))
    calls = []
    real = search._expand

    def counting(s, c, elems):
        if len(elems) == s.order:       # a full expansion, not a reduction
            calls.append((s, c))
        return real(s, c, elems)

    monkeypatch.setattr(search, "_expand", counting)
    connectivity_matrix(["sl2R", "A3.3", "so3"], max_order=3,
                        modes=("subalgebra", "zero_reduce"))
    assert len(calls) == 3 * n3
    calls.clear()
    find_connection(catalog("sl2R"), "A3.3", max_order=3)
    assert len(calls) == n3
    # the subalgebra and resonant modes share one expansion
    calls.clear()
    find_connection(catalog("sl2R"), "A3.3", max_order=2, modes=ALL_MODES)
    assert len(calls) == len(semigroup_inventory(2))


def test_search_checks_its_inputs_once(monkeypatch):
    checks = []
    real_sg, real_lie = semigroup.validate_semigroup, search.require_lie

    def counting_sg(s):
        checks.append("semigroup")
        return real_sg(s)

    def counting_lie(c):
        checks.append("source")
        return real_lie(c)

    for module in (semigroup, expansion):
        monkeypatch.setattr(module, "validate_semigroup", counting_sg)
    monkeypatch.setattr(search, "require_lie", counting_lie)
    # the enumeration builds only semigroups, so neither building the
    # inventory nor searching it validates a table
    semigroup_inventory.cache_clear()
    assert len(semigroup_inventory(3)) == 16 and checks == []
    res = find_connection(catalog("sl2R"), "A3.3", max_order=3,
                          modes=("subalgebra", "zero_reduce"))
    assert res.space["semigroups"] == 16 and checks == ["source"]
    bad = StructureTensor.from_brackets(
        3, {(1, 2): {1: 1}, (1, 3): {1: 1}, (2, 3): {2: 1, 3: 1}})
    with pytest.raises(NotALieAlgebraError):
        find_connection(bad, "A3.3", max_order=2)
    # the public entry points still check what they are given
    with pytest.raises(NotALieAlgebraError):
        s_expand(semigroup_inventory(2)[1][0], bad)


def test_connectivity_report_formats():
    rep = connectivity_matrix(["sl2R", "A2.1+A1"], max_order=2)
    blob = connectivity_to_json(rep)
    assert blob["labels"] == ["sl2R", "A2.1+A1"]
    assert len(blob["edges"]) == 4
    assert {e["from"] for e in blob["edges"]} == {"sl2R", "A2.1+A1"}
    dot = connectivity_to_dot(rep)
    assert dot.startswith("digraph connections {")
    assert dot.rstrip().endswith("}")
    assert '"sl2R" -> "A2.1+A1" [label="S2/subalgebra"];' in dot
    assert '"A2.1+A1" -> "sl2R"' not in dot
    assert '"sl2R" -> "sl2R"' not in dot
