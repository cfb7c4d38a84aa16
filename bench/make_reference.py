"""Regenerate reference.json: the witness count of every query the
search-cold generator can draw, and the atlas found-set.

    python3 bench/make_reference.py [--out bench/reference.json]

Every query runs in a fresh forked process through liex.cli.main, exactly
as the benchmark runs it, and every witness is replayed before its count is
recorded.  Takes about a quarter of an hour on two cores; the per-query
times it prints are a rough guide, not benchmark results.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ops import forked, run_cli  # noqa: E402


def _search_one(q):
    def child(t0):
        rc, out = run_cli(workloads.search_argv(q))
        t_end = time.perf_counter()
        bad = checks.check_search(q, rc, out, None)
        return {"t": t_end - t0, "bad": bad, "bytes": len(out),
                "witnesses": len(json.loads(out)["witnesses"]) if rc == 0 else None}
    return forked(child)[0]


def _atlas():
    plan = workloads.atlas_plan(0)

    def child(t0):
        rc, out = run_cli(workloads.atlas_argv(plan))
        if rc != 0:
            return {"error": "exit code %r" % (rc,)}
        found = sorted([e["from"], e["to"]] for e in json.loads(out)["edges"]
                       if e["found"])
        bad = checks.check_atlas(plan, rc, out, found)
        return {"found": found, "bad": bad}
    return forked(child)[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=checks.REFERENCE_PATH)
    args = ap.parse_args()
    table = {}
    for order in (3, 4):
        for src in workloads.ALL3:
            for dst in workloads.ALL3:
                for modes in workloads.SEARCH_MODES:
                    q = {"src": src, "dst": dst, "modes": modes, "order": order}
                    res = _search_one(q)
                    if "error" in res or res["bad"]:
                        sys.exit("%s: %s" % (checks.search_key(q),
                                             res.get("error") or res["bad"]))
                    table[checks.search_key(q)] = res["witnesses"]
                    print("%-40s %6d witnesses %9d bytes %7.2f s"
                          % (checks.search_key(q), res["witnesses"],
                             res["bytes"], res["t"]), flush=True)
    atlas = _atlas()
    if "error" in atlas or atlas["bad"]:
        sys.exit("atlas: %s" % (atlas.get("error") or atlas["bad"]))
    if len(atlas["found"]) != checks.ATLAS_EDGES_FOUND:
        sys.exit("atlas found %d edges, pinned %d"
                 % (len(atlas["found"]), checks.ATLAS_EDGES_FOUND))
    with open(args.out, "w") as fh:
        json.dump({"search_witnesses": table, "atlas_found": atlas["found"]},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
