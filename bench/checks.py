"""Output checks.  Each returns None when the output is right and a short
reason string when it is not; the driver counts a reason as a failed op.

The pinned numbers below do not depend on the source algebra: they are the
sizes of the searched spaces, fixed by the semigroup orders and the search
modes.  Witness counts and the atlas found-set come from reference.json,
generated at the commit that introduced the benchmark (make_reference.py).
"""

import json
import os
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from workloads import ALL3

# (semigroups, subalgebra, zero_reduce, resonant) candidates, by max order
PINNED_SPACE = {3: (16, 1069, 162, 8914), 4: (74, 13829, 3438, 8914)}
ENUMERATE_COUNTS = {False: 58, True: 1140}   # keyed by --labelled
ATLAS_EDGES_FOUND = 31

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def search_key(q):
    return "%s|%s|%s|%d" % (q["src"], q["dst"], q["modes"], q["order"])


def expected_space(modes, order):
    sg, sub, zr, res = PINNED_SPACE[order]
    space = {"semigroups": sg}
    per_mode = {"subalgebra": sub, "zero_reduce": zr, "resonant": res}
    for m in modes.split(","):
        space["%s_candidates" % m] = per_mode[m]
    return space


def _witness_from_json(w):
    from liex.search import Witness
    from liex.semigroup import SemigroupTable
    span = w.get("span")
    return Witness(
        semigroup=SemigroupTable.from_json(w["semigroup"]),
        semigroup_name=w.get("semigroup_name"),
        mode=w["mode"],
        span=None if span is None else tuple(tuple(Fraction(x) for x in v)
                                             for v in span),
        resonance=w.get("resonance"),
        label=w["label"],
        param=Fraction(w["param"]) if "param" in w else None,
        basis_change=tuple(tuple(Fraction(x) for x in r)
                           for r in w["basis_change"]))


@contextmanager
def memoized_expansions():
    """Let replay reuse expansions across the witnesses of one output.

    replay() rebuilds the ambient algebra for every witness; the expansion
    is a pure function of (semigroup, source), so caching it here changes
    no verdict and turns minutes of checking into seconds.
    """
    from liex import search
    saved = search.s_expand, search.zero_reduce
    search.s_expand = lru_cache(maxsize=None)(saved[0])
    search.zero_reduce = lru_cache(maxsize=None)(saved[1])
    try:
        yield
    finally:
        search.s_expand, search.zero_reduce = saved


def _check_witness(source, target_label, w):
    from liex.liealg import parse_label
    from liex.search import replay
    name, params = parse_label(target_label)
    want = params.get("a", params.get("b"))
    got = Fraction(w["param"]) if "param" in w else None
    if (w["label"], got) != (name, want):
        return "witness labelled %s%s, target %s" % (
            w["label"], "" if got is None else "(%s)" % got, target_label)
    if not replay(source, _witness_from_json(w)):
        return "witness does not replay"
    return None


def check_search(q, rc, out, witness_count):
    """A `liex search` output: exit code, pinned space, the reference
    witness count, and every witness replayed.  witness_count None skips
    the count (used when generating the reference)."""
    from liex.liealg import resolve_algebra
    if rc != 0:
        return "exit code %r" % (rc,)
    d = json.loads(out)
    want = expected_space(q["modes"], q["order"])
    if d["space"] != want:
        return "space %r, expected %r" % (d["space"], want)
    ws = d["witnesses"]
    if witness_count is not None and len(ws) != witness_count:
        return "%d witnesses, reference %d" % (len(ws), witness_count)
    if d["found"] != bool(ws):
        return "found flag disagrees with the witness list"
    source = resolve_algebra(q["src"])
    with memoized_expansions():
        for i, w in enumerate(ws):
            bad = _check_witness(source, q["dst"], w)
            if bad:
                return "witness %d: %s" % (i, bad)
    return None


def check_atlas(plan, rc, out, found_edges):
    """A `liex graph` output: all 81 edges with pinned spaces, the reference
    found-set, and each first witness replayed."""
    from liex.liealg import resolve_algebra
    if rc != 0:
        return "exit code %r" % (rc,)
    d = json.loads(out)
    edges = d["edges"]
    if len(edges) != len(ALL3) ** 2:
        return "%d edges" % len(edges)
    want = expected_space(plan["modes"], plan["order"])
    found = sorted([e["from"], e["to"]] for e in edges if e["found"])
    if found != sorted(found_edges):
        return "found-set differs from the reference (%d edges)" % len(found)
    with memoized_expansions():
        for e in edges:
            if e["space"] != want:
                return "edge %s->%s space %r" % (e["from"], e["to"], e["space"])
            if e["found"]:
                bad = _check_witness(resolve_algebra(e["from"]), e["to"],
                                     e["witness"])
                if bad:
                    return "edge %s->%s: %s" % (e["from"], e["to"], bad)
    return None


def check_enumerate(item, rc, out):
    if rc != 0:
        return "exit code %r" % (rc,)
    d = json.loads(out)
    want = ENUMERATE_COUNTS[item["labelled"]]
    tables = {json.dumps(t) for t in d["tables"]}
    if d["count"] != want or len(tables) != want:
        return "count %r (%d distinct tables), expected %d" % (
            d["count"], len(tables), want)
    return None


def check_roundtrip(name, param, d, ident):
    """identify3(d) for d a basis change of catalog(name, param)."""
    from liex.liealg import catalog, change_basis
    want = None if param is None else Fraction(param)
    if (ident.label, ident.param) != (name, want):
        return "identified %s(%s), expected %s(%s)" % (
            ident.label, ident.param, name, want)
    params = {} if want is None else {("a" if name == "A3.4" else "b"): want}
    if change_basis(d, ident.witness_matrix()) != catalog(name, **params):
        return "witness does not map the input onto the catalog tensor"
    return None


def check_refusal(case, exc):
    """The refusal must be the expected error type and carry a non-empty
    witness; the witness's form is not checked."""
    from liex.errors import ParameterNotRationalError, RationalFormError
    want = ParameterNotRationalError if case == "irrational" else RationalFormError
    if exc is None:
        return "%s input was identified, expected %s" % (case, want.__name__)
    if not isinstance(exc, want):
        return "%s input raised %s, expected %s" % (
            case, type(exc).__name__, want.__name__)
    if not exc.witness:
        return "%s refusal carries no witness" % case
    return None


def check_contract(report):
    if report.get("ok") is not True or report.get("identified") != "gE":
        return "gF -> gE contraction not verified: %r" % (report.get("identified"),)
    return None
