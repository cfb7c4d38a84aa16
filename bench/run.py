"""liex benchmark driver.

    python3 bench/run.py --workload search-cold --seed 1 --seconds 20 --trace 0

Runs one workload (search-cold, atlas, classify, enumerate) against the
liex sources in ../src, one op at a time, for --seconds of timed work, and
checks every output.  With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics of BENCHMARK.json.  With --trace 1 the run
measures untraced first, then runs the same rounds again under the tracer
and reports the per-layer metrics instead.  A results file with the
environment record (and, when traced, a spans file) goes to .bench_out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_AT_ENDS = 3
SETUP_EVERY_S = 3.0
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99

import checks  # noqa: E402
import workloads  # noqa: E402
from ops import forked, run_cli, scan_cache_info  # noqa: E402
from spans import Tracer, per_layer_metrics  # noqa: E402

END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


# -- environment and set-up ------------------------------------------------

def git_sha(root=ROOT):
    """Commit of the checkout read from .git, or None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {"python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "seed": seed}


def setup_labels(workload):
    """Catalog inputs the workload resolves before its first op."""
    if workload in ("search-cold", "atlas"):
        return list(workloads.ALL3)
    if workload == "classify":
        return ["gF"] + ["%s(%s)" % (n, p) if p else n
                         for n, p in workloads.CRITERION8]
    return []


_SETUP_CODE = ("import sys, liex, liex.cli\n"
               "for lab in sys.argv[1:]:\n"
               "    liex.resolve_algebra(lab)\n")


class SetupTimer:
    """Wall time of a fresh interpreter importing liex (and its CLI) and
    resolving the workload's catalog labels.

    Samples are taken at the start and end of a run and between rounds, at
    most one per SETUP_EVERY_S seconds, so that their median spans the
    machine's slow and fast spells like the timed work does.
    """

    def __init__(self, workload):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        self.argv = [sys.executable, "-c", _SETUP_CODE] + setup_labels(workload)
        self.times = []
        self.last = 0.0

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run(self.argv, env=self.env, check=True,
                           stdout=subprocess.DEVNULL)
            self.last = time.perf_counter()
            self.times.append(self.last - t0)

    def between_rounds(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()

    def median(self):
        return statistics.median(self.times)


# -- workloads ----------------------------------------------------------------
#
# A runner takes the plan, a Budget and an optional tracer, and returns op
# records {"lat": seconds, "bad": reason or None, "rss_kb": int}, adding
# each op's latency to budget.timed.  Outputs are checked outside the timed
# region.

class Budget:
    """When a run stops: after `seconds` of timed work or after `rounds`
    rounds, checked only between rounds so a run holds whole rounds.
    `between` is called between rounds, outside the timed region."""

    def __init__(self, seconds=None, rounds=None, between=None):
        self.seconds, self.rounds, self.between = seconds, rounds, between
        self.timed = 0.0
        self.done = 0

    def next_round(self):
        if self.rounds is not None:
            more = self.done < self.rounds
        else:
            more = self.timed < self.seconds
        if more:
            if self.done and self.between is not None:
                self.between()
            self.done += 1
        return more


def _child_trace_begin(tracer, op):
    if tracer is not None:
        tracer.reset()
        tracer.op = op
        tracer.active = True


def _child_trace_end(tracer, payload, out):
    if tracer is not None:
        tracer.active = False
        hits, misses = scan_cache_info()
        tracer.counters["search.scan_hits"] += hits
        tracer.counters["search.scan_misses"] += misses
        tracer.counters["cli.stdout_bytes"] += len(out)
        tracer.uninstall()     # checks below are not traced
        payload["trace"] = tracer.export()


def _judge(out, check, checked, key):
    """(digest of out, failure reason or None).  With `checked` (digests of
    the outputs that passed their check in the untraced pass), an output is
    only compared with that digest: the program is deterministic, and an
    identical output has passed already.  The digest is the built-in str
    hash, which forked children share with their parent; hashlib would map
    a crypto library into every op process and show in peak_rss_mb."""
    digest = hash(out)
    if checked is None:
        return digest, check()
    if checked.get(key) == digest:
        return digest, None
    return digest, "output differs from the checked untraced run"


def _forked_cli_ops(plan, argv_of, check, budget, tracer, checked):
    records = []
    for rnd in plan:
        if not budget.next_round():
            break
        for item in rnd:
            op = len(records)

            def child(t0, item=item, op=op):
                _child_trace_begin(tracer, op)
                rc, out = run_cli(argv_of(item))
                payload = {"t_end": time.perf_counter()}
                _child_trace_end(tracer, payload, out)
                payload["digest"], payload["bad"] = _judge(
                    out, lambda: check(item, rc, out), checked, op)
                return payload

            t_fork = time.perf_counter()
            payload, rss = forked(child)
            if "error" in payload:
                lat, bad = time.perf_counter() - t_fork, payload["error"]
            else:
                lat, bad = payload["t_end"] - t_fork, payload["bad"]
                if tracer is not None:
                    tracer.merge(payload["trace"])
            budget.timed += lat
            records.append({"lat": lat, "bad": bad, "rss_kb": rss, "key": op,
                            "digest": payload.get("digest")})
    return records


def run_search_cold(plan, budget, tracer, ref, checked=None):
    table = ref["search_witnesses"]

    def check(q, rc, out):
        key = checks.search_key(q)
        if key not in table:
            return "query %s is not in the reference table" % key
        return checks.check_search(q, rc, out, table[key])
    return _forked_cli_ops(plan, workloads.search_argv, check, budget, tracer,
                           checked)


def run_enumerate(plan, budget, tracer, ref, checked=None):
    return _forked_cli_ops(plan, workloads.enumerate_argv,
                           checks.check_enumerate, budget, tracer, checked)


def run_atlas(plan, budget, tracer, ref, checked=None):
    """One forked `liex graph` call per batch.  Each of its 81 edges is an
    op; the CLI gives no edge its own time, so every edge is charged the
    call's wall time divided by the edge count."""
    records = []
    edges = len(plan["labels"]) ** 2
    while budget.next_round():
        def child(t0):
            _child_trace_begin(tracer, budget.done)
            rc, out = run_cli(workloads.atlas_argv(plan))
            payload = {"t_end": time.perf_counter()}
            _child_trace_end(tracer, payload, out)
            payload["digest"], payload["bad"] = _judge(
                out, lambda: checks.check_atlas(plan, rc, out, ref["atlas_found"]),
                checked, budget.done)
            return payload

        t_fork = time.perf_counter()
        payload, rss = forked(child)
        if "error" in payload:
            lat, bad = time.perf_counter() - t_fork, payload["error"]
        else:
            lat, bad = payload["t_end"] - t_fork, payload["bad"]
            if tracer is not None:
                tracer.merge(payload["trace"])
        budget.timed += lat
        records.extend({"lat": lat / edges, "bad": bad, "rss_kb": rss,
                        "key": budget.done, "digest": payload.get("digest")}
                       for _ in range(edges))
    return records


def _classify_inputs():
    """Catalog tensors and refusal inputs, resolved once before timing."""
    from liex.contraction import U_FE
    from liex.liealg import StructureTensor, catalog

    def so_q(q1, q2, q3):
        # antisymmetric matrices for the form q1 x^2 + q2 y^2 + q3 z^2
        return StructureTensor.from_brackets(
            3, {(1, 2): {3: -q1}, (1, 3): {2: q2}, (2, 3): {1: -q3}})

    refusals = {
        "irrational": StructureTensor.from_brackets(
            3, {(1, 3): {1: 1, 2: -1}, (2, 3): {1: 2, 2: 1}}),
        "anisotropic": so_q(1, 1, 3),
        "nonsplit": so_q(1, 1, -3),
    }
    return catalog("gF"), U_FE, refusals


def _classify_op(item, inputs, tracer, op):
    from fractions import Fraction
    from liex import contraction, identify
    from liex.liealg import catalog, change_basis
    gF, ufe, refusals = inputs
    kind = item["kind"]
    if kind == "roundtrip":
        name, param = item["name"], item["param"]
        params = {} if param is None else {
            ("a" if name == "A3.4" else "b"): Fraction(param)}
        d = change_basis(catalog(name, **params), item["u"])
    elif kind == "refuse":
        d = change_basis(refusals[item["case"]], item["u"])
    if tracer is not None:
        tracer.op = op
        tracer.active = True
    result = exc = None
    t0 = time.perf_counter()
    try:
        if kind == "contract":
            result = contraction.verify_contraction(gF, ufe, "gE")
        else:
            result = identify.identify3(d)
    except Exception as e:   # judged below, outside the timed region
        exc = e
    lat = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if kind == "refuse":
        bad = checks.check_refusal(item["case"], exc)
    elif exc is not None:
        bad = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    elif kind == "contract":
        bad = checks.check_contract(result)
    else:
        bad = checks.check_roundtrip(name, param, d, result)
    return {"lat": lat, "bad": bad}


def run_classify(plan, budget, tracer, ref, checked=None):
    """In-process identify3 round trips, refusals and contraction checks."""
    inputs = _classify_inputs()
    records = []
    for rnd in plan:
        if not budget.next_round():
            break
        for item in rnd:
            rec = _classify_op(item, inputs, tracer, len(records))
            budget.timed += rec["lat"]
            records.append(rec)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for r in records:
        r["rss_kb"] = rss
    return records


RUNNERS = {"search-cold": run_search_cold, "atlas": run_atlas,
           "classify": run_classify, "enumerate": run_enumerate}


# -- metrics --------------------------------------------------------------------

def tail(lats):
    """(value, percentile) at the highest percentile, up to TAIL_MAX_PCT,
    with TAIL_BEYOND samples beyond it; the maximum when there are too few
    samples.

    The cap matters only for runs of more than about a thousand ops
    (classify).  There the eleventh-slowest op would be p99.8, set by the
    few ops that a shared machine happened to preempt or slow down; at p99
    some fifty samples lie beyond, and the value is that of the slowest
    kind of op (the contraction checks)."""
    s = sorted(lats)
    k = min(len(s) - TAIL_BEYOND, math.ceil(TAIL_MAX_PCT / 100 * len(s))) - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(records, timed, setup_s):
    lats = [r["lat"] for r in records]
    tail_s, tail_pct = tail(lats)
    rss = statistics.median(r["rss_kb"] for r in records)
    values = {"ops_per_s": len(records) / timed,
              "op_p50_ms": 1000 * statistics.median(lats),
              "op_tail_ms": 1000 * tail_s,
              "setup_s": setup_s,
              "peak_rss_mb": rss / 1024}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    detail = {"samples": len(lats), "timed_s": timed,
              "tail_percentile": tail_pct, "tail_beyond": TAIL_BEYOND}
    return metrics, detail


def fail_frac(records):
    return sum(1 for r in records if r["bad"]) / len(records)


# -- main -------------------------------------------------------------------------

def _import_liex():
    if not os.path.isfile(os.path.join(SRC, "liex", "__init__.py")):
        sys.exit("error: no liex sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import liex
    import liex.cli  # noqa: F401  (the CLI module is not imported by liex)
    if not os.path.abspath(liex.__file__).startswith(SRC + os.sep):
        sys.exit("error: imported liex from %s, not %s" % (liex.__file__, SRC))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=OUT_DIR,
                    help="directory for the results file (default .bench_out)")
    args = ap.parse_args(argv)
    _import_liex()

    env = environment(args.seed)
    env["loadavg_start"] = list(os.getloadavg())
    ref = (checks.load_reference()
           if args.workload in ("search-cold", "atlas") else None)
    plan_of = workloads.PLANS[args.workload]
    runner = RUNNERS[args.workload]

    setup = SetupTimer(args.workload)
    setup.sample(SETUP_AT_ENDS)
    budget = Budget(seconds=args.seconds, between=setup.between_rounds)
    records = runner(plan_of(args.seed), budget, None, ref)
    setup.sample(SETUP_AT_ENDS)
    metrics, detail = end_to_end(records, budget.timed, setup.median())
    detail["rounds"] = budget.done
    detail["setup_samples"] = len(setup.times)
    all_records = list(records)
    tracer = None
    if args.trace:
        # the same rounds again, traced; CLI outputs are compared with the
        # outputs checked above (classify checks every op again)
        checked = {r["key"]: r["digest"] for r in records
                   if r.get("digest") is not None and not r["bad"]}
        tracer = Tracer()
        tracer.install()
        traced = Budget(rounds=budget.done)
        try:
            t_records = runner(plan_of(args.seed), traced, tracer, ref, checked)
        finally:
            tracer.uninstall()
        all_records += t_records
        detail["traced_timed_s"] = traced.timed
        overhead = 1 - (len(t_records) / traced.timed) / (len(records) / budget.timed)
        metrics = per_layer_metrics(tracer, overhead)
    env["loadavg_end"] = list(os.getloadavg())

    failed = sum(1 for r in all_records if r["bad"])
    reasons = sorted({r["bad"] for r in all_records if r["bad"]})
    detail["fail_frac"] = fail_frac(all_records)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "environment": env, "metrics": metrics, "detail": detail,
                   "failures": reasons[:20]}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")

    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g %s" % ("fail_frac", detail["fail_frac"], "ratio"))
    for reason in reasons[:5]:
        print("FAILED: %s" % reason.splitlines()[-1][:300])
    print(json.dumps({"correct": failed == 0, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
