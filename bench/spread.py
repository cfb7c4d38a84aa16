"""Run the benchmark over several seeds and report, per workload and
end-to-end metric, the median and the quartile spread as a share of it.

    python3 bench/spread.py --workloads search-cold,atlas --seeds 1-10 \
        --seconds 20 [--trace 0] [--out summary.json]

Each run is a fresh `python3 bench/run.py` process, as the benchmark is
meant to be run.  The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            res = run_once(wl, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **res})
            print("%s seed %d: correct=%s %s" % (
                wl, seed, res["correct"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in res["metrics"].items())), flush=True)
        names = runs[0]["metrics"]
        summary = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in names}
        for k, s in summary.items():
            print("  %-44s median %-12.5g spread %s" % (
                k, s["median"],
                "-" if s["spread"] is None else "%.3f" % s["spread"]))
        report[wl] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
