"""Tests of the benchmark itself (not of liex):

    python3 -m pytest bench/test_bench.py -q

Seeded plans are reproducible, tampered outputs count as failed ops, and
the metric names printed match BENCHMARK.json.
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# small order-3 query with witnesses in both modes
QUERY = {"src": "A3.3", "dst": "A2.1+A1", "modes": "subalgebra,zero_reduce",
         "order": 3}


def _head(workload, seed, rounds=20):
    plan = workloads.PLANS[workload](seed)
    return plan if workload == "atlas" else list(islice(plan, rounds))


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_same_seed_same_inputs(workload):
    assert _head(workload, 7) == _head(workload, 7)
    assert _head(workload, 7) != _head(workload, 8)


def test_search_rounds_keep_the_mix():
    for seed in (1, 2):
        for r, rnd in enumerate(_head("search-cold", seed)):
            order3 = [q for q in rnd if q["order"] == 3]
            assert sorted(q["src"] for q in order3) == sorted(workloads.ALL3)
            assert sorted(q["dst"] for q in order3) == sorted(workloads.ALL3)
            resonant = sum(q["modes"] == "resonant" for q in order3)
            order4 = [q for q in rnd if q["order"] == 4]
            assert (resonant, len(order4)) == ((1, 1) if r % 2 == 0 else (0, 0))
            assert all(q["modes"] != "resonant" for q in order4)


def test_every_search_query_has_a_reference_count():
    table = checks.load_reference()["search_witnesses"]
    for rnd in _head("search-cold", 11, 200):
        for q in rnd:
            assert checks.search_key(q) in table


@pytest.fixture(scope="module")
def search_output():
    rc, out = run.run_cli(workloads.search_argv(QUERY))
    assert rc == 0
    return out


def _reference_count():
    return checks.load_reference()["search_witnesses"][checks.search_key(QUERY)]


def _tampered(out, edit):
    d = json.loads(out)
    edit(d)
    return json.dumps(d)


def test_untampered_search_output_passes(search_output):
    assert checks.check_search(QUERY, 0, search_output, _reference_count()) is None


def test_wrong_space_count_fails(search_output):
    def edit(d):
        d["space"]["subalgebra_candidates"] += 1
    bad = checks.check_search(QUERY, 0, _tampered(search_output, edit),
                              _reference_count())
    assert bad and "space" in bad


def test_wrong_witness_count_fails(search_output):
    def edit(d):
        d["witnesses"].pop()
    assert checks.check_search(QUERY, 0, _tampered(search_output, edit),
                               _reference_count())


def test_witness_that_does_not_replay_fails(search_output):
    def edit(d):
        # [f1, f2] = f1 in A2.1+A1; with the rows swapped it is -f2
        bc = d["witnesses"][-1]["basis_change"]
        bc[0], bc[1] = bc[1], bc[0]
    bad = checks.check_search(QUERY, 0, _tampered(search_output, edit),
                              _reference_count())
    assert bad and "replay" in bad


def test_wrong_witness_label_fails(search_output):
    def edit(d):
        d["witnesses"][0]["label"] = "A3.1"
    bad = checks.check_search(QUERY, 0, _tampered(search_output, edit),
                              _reference_count())
    assert bad and "labelled" in bad


def test_tampered_output_is_a_failed_op(search_output):
    """The whole op path: fork, run, check in the child, record."""
    def check(q, rc, out):
        def edit(d):
            d["space"]["semigroups"] = 15
        return checks.check_search(q, rc, _tampered(out, edit),
                                   _reference_count())
    budget = run.Budget(rounds=1)
    records = run._forked_cli_ops([[QUERY]], workloads.search_argv, check,
                                  budget, None, None)
    assert len(records) == 1 and records[0]["bad"]
    assert run.fail_frac(records) == 1.0
    assert budget.timed > 0


def test_traced_pass_compares_with_the_checked_output():
    digest, bad = run._judge("out", lambda: None, None, 0)
    assert bad is None
    assert run._judge("out", lambda: "wrong", None, 0)[1] == "wrong"
    assert run._judge("out", lambda: "unused", {0: digest}, 0) == (digest, None)
    assert run._judge("tampered", lambda: None, {0: digest}, 0)[1]
    assert run._judge("out", lambda: None, {}, 0)[1]


def test_wrong_classification_fails():
    from liex.identify import identify3
    from liex.liealg import catalog, change_basis
    u = [[1, 2, 0], [0, 1, 0], [1, 0, 1]]
    d = change_basis(catalog("A3.4", a=Fraction(1, 2)), u)
    ident = identify3(d)
    assert checks.check_roundtrip("A3.4", "1/2", d, ident) is None
    assert checks.check_roundtrip("A3.4", "1/3", d, ident)
    assert checks.check_roundtrip("A3.5", "1/2", d, ident)


def test_refusal_checks():
    from liex.errors import ParameterNotRationalError, RationalFormError
    ok = RationalFormError("no frame", witness={"bound": 24})
    assert checks.check_refusal("nonsplit", ok) is None
    assert checks.check_refusal("nonsplit", None)
    assert checks.check_refusal("nonsplit", RationalFormError("no frame"))
    assert checks.check_refusal("irrational", ok)
    assert checks.check_refusal(
        "irrational", ParameterNotRationalError("x", witness={"t": "1"})) is None


def test_wrong_enumeration_count_fails():
    rc, out = run.run_cli(["enumerate-semigroups", "--order", "3"])
    assert checks.check_enumerate({"labelled": False}, rc, out)


def test_tail_keeps_ten_samples_beyond():
    lats = [float(i) for i in range(100)]
    value, pct = run.tail(lats)
    assert value == 89.0 and pct == 90.0
    assert sum(x > value for x in lats) == run.TAIL_BEYOND
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_tail_is_capped_at_p99():
    lats = [float(i) for i in range(5000)]
    value, pct = run.tail(lats)
    assert value == 4949.0 and pct == run.TAIL_MAX_PCT
    assert sum(x > value for x in lats) == 50


def _printed_metrics(tmp_path, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "enumerate", "--seed", "1",
                       "--seconds", "0.3", "--trace", str(trace),
                       "--out", str(tmp_path)])
    assert rc == 0
    last = json.loads(buf.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    return last["metrics"]


def test_printed_end_to_end_metrics_match_benchmark_json(tmp_path):
    metrics = _printed_metrics(tmp_path, 0)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())
    record = json.loads((tmp_path / "enumerate-seed1-trace0.json").read_text())
    for key in ("python", "nproc", "git_sha", "seed", "loadavg_start",
                "loadavg_end"):
        assert key in record["environment"]


def test_printed_per_layer_metrics_match_benchmark_json(tmp_path):
    metrics = _printed_metrics(tmp_path, 1)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert [(n, u, b) for n, u, b in spans.PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert metrics["semigroup.canonical_form.calls"]["value"] > 0
    assert (tmp_path / "enumerate-seed1-trace1.spans.jsonl").stat().st_size > 0
