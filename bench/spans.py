"""Tracing from outside the package: wrappers around liex's public
functions, installed wherever callers look them up (every liex module
attribute bound to the original function), and removed again afterwards.

Each wrapped call records a span (id, name, start, end, parent, op).  Self
time is the span's duration minus the time its child spans cover, kept
online per name.  liealg.bracket is called too often for a span per call:
it keeps only a count and a total, which still come off its caller's self
time.
"""

import json
import sys
import time

# layer -> traced public functions
TRACED = {
    "semigroup": ("enumerate_abelian_semigroups", "canonical_form",
                  "semigroups_isomorphic"),
    "expansion": ("s_expand", "zero_reduce", "extract_subalgebra",
                  "validate_resonance"),
    "liealg": ("validate_lie", "bracket", "change_basis",
               "derived_subalgebra", "killing_form"),
    "linalg": ("rref", "inverse", "det", "nullspace"),
    "identify": ("identify3",),
    "contraction": ("transform_parametric", "limit"),
    "search": ("find_connection", "semigroup_inventory",
               "scan_3dim_subalgebras", "connectivity_matrix"),
    "cli": ("main",),
}
AGGREGATED = {"liealg.bracket"}
TENSOR_BUILDERS = {"expansion.s_expand", "expansion.zero_reduce",
                   "expansion.extract_subalgebra"}
# identify3 results keyed by the derived dimension of the returned class
DERIVED_KEY = {"3A1": "abelian", "A2.1+A1": "derived1", "A3.1": "derived1",
               "A3.2": "derived2", "A3.3": "derived2", "A3.4": "derived2",
               "A3.5": "derived2", "sl2R": "simple", "so3": "simple"}
COUNTERS = ("expansion.nonzero", "expansion.entries", "search.candidates",
            "search.witnesses", "search.scan_hits", "search.scan_misses",
            "cli.stdout_bytes")

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self._names = set()
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []             # open frames: [id, start, covered]
        self.calls = dict.fromkeys(self._names, 0)
        self.self_s = dict.fromkeys(self._names, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self):
        from liex.errors import ParameterNotRationalError, RationalFormError
        self._refusals = (ParameterNotRationalError, RationalFormError)
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "liex" or n.startswith("liex."))]
        for layer, names in TRACED.items():
            home = sys.modules["liex." + layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (layer, fname), orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        self._names.add(name)
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        if name in AGGREGATED:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = _now() - t0
                    tracer.calls[name] += 1
                    tracer.self_s[name] += dur
                    if tracer.stack:
                        tracer.stack[-1][2] += dur
            wrapper.__wrapped__ = fn
            return wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [sid, _now(), 0.0]
            tracer.stack.append(frame)
            outcome = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                outcome = e
                raise
            finally:
                t1 = _now()
                tracer.stack.pop()
                dur = t1 - frame[1]
                own = dur - frame[2]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.spans.append((sid, name, frame[1], t1, parent, tracer.op))
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                extra = tracer._after(name, own, outcome,
                                      result if outcome is None else None)
                if extra is not None:
                    tracer._bump(extra, own)
                if tracer.stack:
                    # bookkeeping above is not the caller's work
                    tracer.stack[-1][2] += _now() - t1
        wrapper.__wrapped__ = fn
        return wrapper

    def _bump(self, key, own):
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + own

    def _after(self, name, own, outcome, result):
        """Counters read off a finished call; returns an extra span key to
        credit with this call's self time, or None."""
        if name == "identify.identify3":
            if outcome is None:
                return "identify.identify3.%s" % DERIVED_KEY[result.label]
            if isinstance(outcome, self._refusals):
                return "identify.refused"
        elif name in TENSOR_BUILDERS and outcome is None:
            n = result.dim
            self.counters["expansion.nonzero"] += 2 * sum(
                len(b) for _, _, b in result.nonzero_brackets())
            self.counters["expansion.entries"] += n ** 3
        elif name == "search.find_connection" and outcome is None:
            self.counters["search.witnesses"] += len(result.witnesses)
            self.counters["search.candidates"] += sum(
                v for k, v in result.space.items() if k.endswith("_candidates"))
        return None

    # -- transport and output ----------------------------------------------

    def export(self):
        return {"spans": self.spans, "calls": self.calls,
                "self_s": self.self_s, "counters": self.counters}

    def merge(self, data):
        """Fold in what a forked child recorded (see export)."""
        self.spans.extend(tuple(s) for s in data["spans"])
        for k, v in data["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in data["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in data["counters"].items():
            self.counters[k] = self.counters.get(k, 0) + v

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metrics besides <fn>.calls and <fn>.self_s, by layer
_EXTRA = {
    "expansion": [("expansion.density", "ratio", "lower")],
    "identify": [("identify.identify3.%s.self_s" % k, "s", "lower")
                 for k in ("abelian", "derived1", "derived2", "simple")]
    + [("identify.refused.calls", "count", "lower"),
       ("identify.refused.self_s", "s", "lower")],
    "search": [("search.scan_cache_hit_ratio", "ratio", "higher"),
               ("search.candidates", "count", "lower"),
               ("search.witnesses", "count", "higher"),
               ("search.witness_yield", "ratio", "higher")],
    "cli": [("cli.stdout_bytes", "bytes", "lower")],
}


def _per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, names in TRACED.items():
        for n in names:
            base = "%s.%s" % (layer, n)
            if base != "search.connectivity_matrix":   # one call per graph
                out.append((base + ".calls", "count", "lower"))
            out.append((base + ".self_s", "s", "lower"))
        out += _EXTRA.get(layer, [])
    return out + [("trace_overhead", "ratio", "lower")]


PER_LAYER = _per_layer_names()


def per_layer_metrics(tracer, trace_overhead):
    """Every per-layer metric from a finished traced run."""
    c = tracer.counters
    values = {}
    for name, unit, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif kind == "self_s":
            values[name] = tracer.self_s.get(base, 0.0)
    values["expansion.density"] = _ratio(c["expansion.nonzero"],
                                         c["expansion.entries"])
    values["search.scan_cache_hit_ratio"] = _ratio(
        c["search.scan_hits"], c["search.scan_hits"] + c["search.scan_misses"])
    values["search.candidates"] = c["search.candidates"]
    values["search.witnesses"] = c["search.witnesses"]
    values["search.witness_yield"] = _ratio(c["search.witnesses"],
                                            c["search.candidates"])
    values["cli.stdout_bytes"] = c["cli.stdout_bytes"]
    values["trace_overhead"] = trace_overhead
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
