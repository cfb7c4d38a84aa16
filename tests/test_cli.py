"""Command line interface, run in process through main(argv).

Each test drives a full subcommand round trip: arguments in, JSON out,
exit code checked, and any emitted tensor re-parsed through the library to
prove the formats agree.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from liex import cli
from liex.contraction import U_FE
from liex.expansion import s_expand, zero_reduce
from liex.liealg import CATALOG_NAMES, StructureTensor, catalog, change_basis
from liex.semigroup import S2, S3


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv, stdin_text=None, monkeypatch=None):
    code, out = run(capsys, argv, stdin_text, monkeypatch)
    return code, json.loads(out)


def test_catalog_listing(capsys):
    code, out = run_json(capsys, ["catalog"])
    assert code == 0
    assert out["names"] == list(CATALOG_NAMES)
    assert set(out["parametric"]) == {"A3.4", "A3.5"}


def test_catalog_tensor_round_trips(capsys):
    code, out = run_json(capsys, ["catalog", "sl2R"])
    assert code == 0
    assert StructureTensor.from_json(out) == catalog("sl2R")
    code, out = run_json(capsys, ["catalog", "A3.4(a=1/2)"])
    assert code == 0
    assert StructureTensor.from_json(out) == catalog("A3.4", a="1/2")


def test_expand_then_identify_pipeline(capsys, monkeypatch):
    code, expanded = run(capsys, ["expand", "--semigroup", "S2",
                                  "--algebra", "sl2R"])
    assert code == 0
    blob = json.loads(expanded)
    assert blob["dim"] == 6 and len(blob["brackets"]) == 12
    assert StructureTensor.from_json(blob) == s_expand(S2, catalog("sl2R"))

    code, out = run_json(capsys, ["identify", "--span", "E1,E2,E3"],
                         stdin_text=expanded, monkeypatch=monkeypatch)
    assert code == 0
    assert out["class"] == "A2.1+A1"
    assert out["full_label"] == "A2.1+A1"
    assert out["cartan_dimension"] == 2
    assert out["invariants"]["dim_derived"] == 1
    assert not out["invariants"]["unimodular"]
    assert len(out["witness"]) == 3


def test_validate_ok(capsys):
    code, out = run_json(capsys, ["validate", "--algebra", "sl2R",
                                  "--semigroup", "S3"])
    assert code == 0
    assert out["algebra"]["ok"] and out["semigroup"]["ok"]
    assert "error" not in out


def test_validate_bad_tensor(capsys, monkeypatch):
    bad = json.dumps({"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"1": "1"}},
        {"i": 1, "j": 3, "coeffs": {"1": "1"}},
        {"i": 2, "j": 3, "coeffs": {"2": "1", "3": "1"}},
    ]})
    code, out = run_json(capsys, ["validate", "--algebra", "-"],
                         stdin_text=bad, monkeypatch=monkeypatch)
    assert code == 2
    assert not out["algebra"]["ok"]
    assert out["error"]["code"] == "not_a_lie_algebra"
    assert out["algebra"]["jacobi"] == [[1, 2, 3, 1, "2"]]


def test_validate_bad_semigroup(capsys, monkeypatch):
    code, out = run_json(capsys, ["validate", "--semigroup", "-"],
                         stdin_text=json.dumps({"table": [[2, 2], [2, 1]]}),
                         monkeypatch=monkeypatch)
    assert code == 2
    assert out["error"]["code"] == "not_a_semigroup"
    assert out["semigroup"]["associativity"][0] == [1, 1, 2]


def test_validate_needs_an_input(capsys):
    code, out = run_json(capsys, ["validate"])
    assert code == 1
    assert out["error"]["code"] == "input_format"


def test_malformed_stdin_json(capsys, monkeypatch):
    code, out = run_json(capsys, ["identify"],
                         stdin_text="not json", monkeypatch=monkeypatch)
    assert code == 1
    assert out["error"]["code"] == "input_format"


def test_expand_order3(capsys):
    code, out = run_json(capsys, ["expand", "--semigroup", "S3",
                                  "--algebra", "sl2R"])
    assert code == 0
    assert out["dim"] == 9 and len(out["brackets"]) == 27


def test_reduce(capsys):
    code, out = run_json(capsys, ["reduce", "--semigroup", "S3",
                                  "--algebra", "sl2R", "--mode", "zero"])
    assert code == 0
    assert StructureTensor.from_json(out) == zero_reduce(S3, catalog("sl2R"))


def test_subalgebra_extraction(capsys, monkeypatch):
    _, expanded = run(capsys, ["expand", "--semigroup", "S3",
                               "--algebra", "sl2R"])
    code, out = run_json(capsys, ["subalgebra", "--algebra", "-",
                                  "--span", "E1,E2,E6"],
                         stdin_text=expanded, monkeypatch=monkeypatch)
    assert code == 0
    assert StructureTensor.from_json(out) == catalog("A3.3")


def test_subalgebra_not_closed(capsys, monkeypatch):
    _, expanded = run(capsys, ["expand", "--semigroup", "S2",
                               "--algebra", "sl2R"])
    code, out = run_json(capsys, ["subalgebra", "--algebra", "-",
                                  "--span", "E1,E5"],
                         stdin_text=expanded, monkeypatch=monkeypatch)
    assert code == 2
    assert out["error"]["code"] == "not_a_subalgebra"
    assert out["error"]["witness"]["pair"] == [1, 2]


def test_identify_file_input_with_parameter(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(catalog("A3.4", a="1/2").to_json()))
    code, out = run_json(capsys, ["identify", "--input", str(path)])
    assert code == 0
    assert out["class"] == "A3.4"
    assert out["a"] == "1/2"
    assert out["full_label"] == "A3.4(a=1/2)"
    assert out["invariants"]["adjoint_parameter"] == "9/2"


def test_identify_refusal_is_a_domain_error(capsys, monkeypatch):
    aniso = StructureTensor.from_brackets(
        3, {(1, 2): {3: -1}, (1, 3): {2: 1}, (2, 3): {1: -3}})
    code, out = run_json(capsys, ["identify"],
                         stdin_text=json.dumps(aniso.to_json()),
                         monkeypatch=monkeypatch)
    assert code == 2
    assert out["error"]["code"] == "no_rational_witness"


def test_contract_verified(capsys):
    code, out = run_json(capsys, ["contract", "--algebra", "gF",
                                  "--family", "UFE", "--target", "gE"])
    assert code == 0
    assert out["ok"] and out["identified"] == "gE"
    assert StructureTensor.from_json(out["limit"]) == catalog("gE")


def test_contract_wrong_target(capsys, tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"dim": 3, "entries": {
        "1,1": {"1": "1"}, "2,2": {"0": "1"}, "3,3": {"1": "1"}}}))
    code, out = run_json(capsys, ["contract", "--algebra", "sl2R",
                                  "--family", str(fam), "--target", "A3.3"])
    assert code == 2
    assert not out["ok"]
    assert out["identified"] == "A3.4(a=-1)"


def test_contract_divergent(capsys, tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"dim": 3, "entries": {
        "1,1": {"-1": "1"}, "2,2": {"0": "1"}, "3,3": {"0": "1"}}}))
    code, raw = run(capsys, ["contract", "--algebra", "sl2R",
                             "--family", str(fam)])
    assert hashlib.sha256(raw.encode()).hexdigest() == (
        "5b970980a6776f8d3a8a68beed7cefa2f3682d6c3a143af379cf10b6b89ceedd")
    out = json.loads(raw)
    assert code == 2
    assert out["error"]["code"] == "divergent_limit"
    assert out["error"]["witness"] == {"i": 1, "j": 3, "k": 2, "valuation": -1}


def test_contract_huge_exponent_is_fast(capsys, tmp_path):
    # a ten-character exponent key costs no more than a small one: no step
    # of the limit does work in proportion to a degree
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"dim": 3, "entries": {
        "1,1": {"0": "1", str(10 ** 6): "1"}, "2,2": {"0": "1", "1": "1"},
        "3,3": {"0": "1"}}}))
    t0 = time.perf_counter()
    code, out = run_json(capsys, ["contract", "--algebra", "sl2R",
                                  "--family", str(fam)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert StructureTensor.from_json(out) == StructureTensor.from_brackets(
        3, {(1, 2): {1: 1}, (1, 3): {2: 2}, (2, 3): {3: 1}})


def test_malformed_json_files_get_the_input_format_envelope(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    entry = {"i": 1, "j": 2, "coeffs": {"3": "1"}}
    for blob in ({"dim": 3, "brackets": [{**entry, "i": "1", "j": "2"}]},
                 {"dim": 3, "brackets": [{**entry, "i": 1.0}]},
                 {"dim": 3, "brackets": [{**entry, "coeffs": {"3": 0.1}}]},
                 {"dim": 10 ** 6, "brackets": []}):
        path.write_text(json.dumps(blob))
        code, out = run_json(capsys, ["validate", "--algebra", str(path)])
        assert code == 1 and out["error"]["code"] == "input_format", blob
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"dim": "2", "entries": {}}))
    code, out = run_json(capsys, ["contract", "--algebra", "sl2R",
                                  "--family", str(fam)])
    assert code == 1 and out["error"]["code"] == "input_format"
    table = tmp_path / "semigroup.json"
    for blob in ({"table": 5}, {"table": [5]}, {"table": None}):
        table.write_text(json.dumps(blob))
        code, out = run_json(capsys, ["validate", "--semigroup", str(table)])
        assert code == 1 and out["error"]["code"] == "input_format", blob


def test_contract_plain_limit(capsys, tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(U_FE.to_json()))
    code, out = run_json(capsys, ["contract", "--algebra", "gF",
                                  "--family", str(fam)])
    assert code == 0
    assert StructureTensor.from_json(out) == catalog("gE")


def test_search_cli(capsys):
    code, out = run_json(capsys, ["search", "--from", "sl2R",
                                  "--to", "A2.1+A1", "--max-order", "2"])
    assert code == 0
    assert out["found"] and len(out["witnesses"]) == 10
    assert out["modes"] == ["subalgebra"]
    assert out["space"] == {"semigroups": 4, "subalgebra_candidates": 61}


def test_search_cli_zero_reduce_mode(capsys):
    code, out = run_json(capsys, ["search", "--from", "sl2R", "--to", "3A1",
                                  "--max-order", "2", "--modes", "zero_reduce"])
    assert code == 0
    assert out["found"] and len(out["witnesses"]) == 1
    assert out["witnesses"][0]["mode"] == "zero_reduce"


def test_search_not_found(capsys):
    code, out = run_json(capsys, ["search", "--from", "so3", "--to", "A3.2",
                                  "--max-order", "2"])
    assert code == 0
    assert not out["found"] and out["witnesses"] == []


def test_max_order_cap(capsys, monkeypatch):
    monkeypatch.setenv("LIEX_MAX_ORDER", "2")
    code, out = run_json(capsys, ["search", "--from", "sl2R",
                                  "--to", "A2.1+A1", "--max-order", "3"])
    assert code == 1
    assert out["error"]["code"] == "input_format"
    assert "exceeds the bound 2" in out["error"]["message"]
    code, out = run_json(capsys, ["graph", "--labels", "sl2R,so3",
                                  "--max-order", "3"])
    assert code == 1
    assert out["error"]["code"] == "input_format"
    assert "exceeds the bound 2" in out["error"]["message"]
    code, out = run_json(capsys, ["enumerate-semigroups", "--order", "3"])
    assert code == 1
    for order in ("0", "-2"):
        for argv in (["search", "--from", "sl2R", "--to", "A2.1+A1"],
                     ["graph", "--labels", "sl2R,so3"]):
            code, out = run_json(capsys, argv + ["--max-order", order])
            assert code == 1, (argv, order)
            assert out["error"]["code"] == "input_format"
            assert "must be positive" in out["error"]["message"]
    monkeypatch.setenv("LIEX_MAX_ORDER", "zzz")
    code, out = run_json(capsys, ["search", "--from", "sl2R",
                                  "--to", "A2.1+A1", "--max-order", "2"])
    assert code == 1


def test_max_order_cap_reaches_the_enumerator(capsys, monkeypatch):
    # order 5 is never enumerated: the stand-in records the bound it gets
    # and returns no semigroups above order 3
    from liex import search
    real = search.enumerate_abelian_semigroups
    bounds = []

    def recording(order, up_to_isomorphism=True, max_order=4):
        bounds.append(max_order)
        return real(order, up_to_isomorphism, max_order) if order <= 3 else []

    monkeypatch.setattr(search, "enumerate_abelian_semigroups", recording)
    monkeypatch.setenv("LIEX_MAX_ORDER", "5")
    search.clear_caches()
    try:
        code, out = run_json(capsys, ["search", "--from", "sl2R",
                                      "--to", "A3.3", "--max-order", "5"])
    finally:
        search.clear_caches()   # drop the stand-in's inventory
    assert code == 0, out
    assert bounds == [5] * 5
    assert out["found"] and out["space"]["semigroups"] == 1 + 3 + 12


def test_enumerate_semigroups(capsys):
    code, out = run_json(capsys, ["enumerate-semigroups", "--order", "3"])
    assert code == 0
    assert out["count"] == 12 and out["up_to_isomorphism"]
    assert len(out["tables"]) == 12
    code, out = run_json(capsys, ["enumerate-semigroups", "--order", "3",
                                  "--labelled"])
    assert code == 0
    assert out["count"] == 63
    code, out = run_json(capsys, ["enumerate-semigroups", "--order", "0"])
    assert code == 1
    code, out = run_json(capsys, ["enumerate-semigroups", "--order", "5"])
    assert code == 1
    assert out["error"]["code"] == "bound_exceeded"


def test_graph_json(capsys):
    code, out = run_json(capsys, ["graph", "--labels", "sl2R,A2.1+A1",
                                  "--max-order", "2"])
    assert code == 0
    assert out["labels"] == ["sl2R", "A2.1+A1"]
    assert len(out["edges"]) == 4
    found = {(e["from"], e["to"]): e["found"] for e in out["edges"]}
    assert found[("sl2R", "A2.1+A1")] and not found[("A2.1+A1", "sl2R")]


# sha256 of `liex graph --labels all3 --max-order 3` stdout per mode set,
# pinned so that changes to the tensor, expansion or search layers keep the
# printed atlas byte for byte
GRAPH_ALL3_SHA256 = {
    "subalgebra": "c5d276be3cc9a4d42ffad30d6546b6451b2143add49e5e75ef3d562fc8cca272",
    "subalgebra,zero_reduce":
        "13ff127c00e4bbfbd8bb2e69e5a7f77968455e395ec25f6ced6f5bb2fd98f306",
    "subalgebra,zero_reduce,resonant":
        "1182ca960cd502afee844a303693c208c63279e5b3f3763418c307dc152d9c89",
}


@pytest.mark.parametrize("modes", sorted(GRAPH_ALL3_SHA256))
def test_graph_all3_stdout_is_pinned(capsys, modes):
    code, out = run(capsys, ["graph", "--labels", "all3", "--max-order", "3",
                             "--modes", modes])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_ALL3_SHA256[modes]


# sha256 of stdout, with the exit code, for one command of each output
# shape: a search in each mode and an order-4 one, both enumerations, a
# tensor, a domain-error envelope, a contraction with and without a target
# and the identify report of both simple classes.  The first eight were
# taken from the json.dump writer the CLI used before it wrote its own JSON,
# so that writer's bytes are kept; the contract and identify digests pin the
# output of the dense Laurent-fraction limit and ad-matrix Killing form.
STDOUT_SHA256 = {
    "search --from sl2R --to A2.1+A1 --max-order 3 --modes subalgebra":
        (0, "369669eb3d42be47c18221b6c8814b317ab6003b88ed38a9d1b9d9d48a4b52a7"),
    "search --from sl2R --to A3.1 --max-order 3 --modes zero_reduce":
        (0, "fdecbbacd7561650d115b2ed33380f157ee1d836ae7a8748cc02f78a266390a3"),
    "search --from sl2R --to A2.1+A1 --max-order 3 --modes resonant":
        (0, "1e0c273f221a30c5b29b09ad957b5ade2956270acb673912a74452d4017ab65c"),
    "search --from sl2R --to A2.1+A1 --max-order 4 --modes subalgebra,zero_reduce":
        (0, "81db59efc1b40375076027bc31288011bacc3b92491458382da9a63edec287e4"),
    "enumerate-semigroups --order 4":
        (0, "4314dbefc66ce9fb583b308b2bf03735a63be804d849af21b96667f3052e7c64"),
    "enumerate-semigroups --order 4 --labelled":
        (0, "4044053b457616ad0c34aa0326440808cf89b273d7e6b014d9bb6dc0a273d4c1"),
    "catalog sl2R":
        (0, "42c67b533010b83e8b3ef08a7db3fd317310602459d3f053df4d6f99c9f68c15"),
    "subalgebra --algebra sl2R --span E1,E3":
        (2, "85dccbb25153d61407f5228b62a0ad4cccc772bd3aeb88c49f915f547b670f3c"),
    "contract --algebra gF --family UFE --target gE":
        (0, "c94c7925caa6031182da6882210fffc32dbb819afcc5df474c0d2305b0a866b7"),
    "contract --algebra gF --family UFE":
        (0, "2cbed826cf1d5f156e8c3fb958d39a60c8f89dd0ad49a69e838382c5a52bcaca"),
    "identify --algebra sl2R":
        (0, "5bccf32fc282fff093c7bee09e4b8d53df9e748b18afa0ec5fe2aae5da622e84"),
    "identify --algebra so3":
        (0, "6c13f1308ff731fa7a2aa09e840fbaec2d17e00c353c4c6509018f198e1b0752"),
}


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_stdout_is_pinned(capsys, command):
    code, out = run(capsys, command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_SHA256[command]


def _so_q(q1, q2, q3):
    # antisymmetric matrices for the form q1 x^2 + q2 y^2 + q3 z^2
    return StructureTensor.from_brackets(
        3, {(1, 2): {3: -q1}, (1, 3): {2: q2}, (2, 3): {1: -q3}})


_SKEW = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]

# sha256 of `identify --algebra FILE` stdout, with the exit code, for simple
# inputs: so3 and sl2R in a skew basis (the so3 one is Gram-reduced and
# found past shell 1), a complement-norm refusal in a skew basis, and the
# anisotropic and nonsplit refusals.  Taken from the Fraction Gram reduction
# and cube-sweep square search that the integer walk replaced.
IDENTIFY_SIMPLE_SHA256 = {
    "so3.U": (lambda: change_basis(catalog("so3"), _SKEW),
              0, "33084f909259e7150c2c6ddd87d31a83d5214645dacf55cb9a38f4f232a0d929"),
    "sl2R.U": (lambda: change_basis(catalog("sl2R"), _SKEW),
               0, "1268fd7cd66e44ed2c4f174cfe358d0dfe18aa902be2ae5d21e0f67379cb03c0"),
    "so_q(2,1,7).U": (lambda: change_basis(_so_q(2, 1, 7), _SKEW),
                      2, "7b557bf056d33c2a5ab1cff04c7befee164ae0fc7d828c673c8417eca2a0c259"),
    "so_q(1,1,3)": (lambda: _so_q(1, 1, 3),
                    2, "07847ff2f8f9c6bad58b309716023d8d1d2aeb0a53ff1e7511424492b4574513"),
    "so_q(1,1,-3)": (lambda: _so_q(1, 1, -3),
                     2, "361f0f2dccf1fc7bf5ff83079c850f6eca324562ebad162e6cef9d9180e6cff6"),
}


@pytest.mark.parametrize("name", sorted(IDENTIFY_SIMPLE_SHA256))
def test_identify_simple_stdout_is_pinned(capsys, tmp_path, name):
    make, want_code, want_digest = IDENTIFY_SIMPLE_SHA256[name]
    path = tmp_path / "tensor.json"
    with open(path, "w") as f:
        json.dump(make().to_json(), f)
    code, out = run(capsys, ["identify", "--algebra", str(path)])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, want_digest)


def test_refused_float_entry_is_echoed_as_text(capsys, tmp_path):
    # JSON floats are refused, and the writer prints none: the offending
    # entry comes back as its repr
    table = tmp_path / "semigroup.json"
    table.write_text(json.dumps({"table": [[1.5]]}))
    code, out = run_json(capsys, ["validate", "--semigroup", str(table)])
    assert code == 1 and out["error"]["witness"] == {"entry": "1.5"}
    table.write_text(json.dumps({"table": [[2, [1.0, "x"]], [2, 2]]}))
    code, out = run_json(capsys, ["validate", "--semigroup", str(table)])
    assert code == 1 and out["error"]["witness"] == {"entry": ["1.0", "x"]}


def test_closed_pipe_exits_141_quietly():
    # liex ... | head: the reader takes 100 bytes of about 287k and closes
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen(
            [sys.executable, "-m", "liex", "enumerate-semigroups", "--order",
             "4", "--labelled"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_graph_dot_output(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out = run(capsys, ["graph", "--labels", "sl2R,A2.1+A1",
                             "--max-order", "2", "--dot", str(target)])
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("digraph connections {")
    assert '"sl2R" -> "A2.1+A1"' in text
    code, out = run(capsys, ["graph", "--labels", "sl2R,A2.1+A1",
                             "--max-order", "2", "--dot"])
    assert code == 0
    assert out.startswith("digraph connections {")


def test_no_subcommand_prints_help(capsys):
    code, out = run(capsys, [])
    assert code == 1
    assert "usage" in out.lower()


def test_unknown_names(capsys):
    code, out = run_json(capsys, ["catalog", "bogus"])
    assert code == 1
    assert out["error"]["code"] == "input_format"
    code, out = run_json(capsys, ["expand", "--semigroup", "S9",
                                  "--algebra", "sl2R"])
    assert code == 1
    code, out = run_json(capsys, ["contract", "--algebra", "sl2R",
                                  "--family", "nope"])
    assert code == 1


def test_seed_flag_accepted(capsys):
    code, out = run_json(capsys, ["--seed", "7", "catalog"])
    assert code == 0


def test_bad_arguments_exit_one(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["frobnicate"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        cli.main(["expand", "--semigroup", "S2"])
    assert ei.value.code == 1
