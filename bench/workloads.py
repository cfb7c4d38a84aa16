"""Seeded inputs for the four benchmark workloads.

Nothing here imports liex: a plan is plain data (labels, flags, rational
matrices as strings) that the driver turns into library or CLI calls.  The
same seed always gives the same plan.

Op plans are endless generators of rounds (lists of ops), and the driver
stops only between rounds.  Every round has the same mix of work whatever
the seed: the seed picks which sources, targets and basis changes appear
and in what order, not how many of each kind.
"""

import itertools
import random
from fractions import Fraction

ALL3 = ("3A1", "A2.1+A1", "A3.1", "A3.2", "A3.3",
        "A3.4(a=1/2)", "A3.5(b=1)", "sl2R", "so3")
SEARCH_MODES = ("subalgebra", "subalgebra,zero_reduce", "resonant")
ATLAS_MODES = "subalgebra,zero_reduce"
ATLAS_ORDER = 3

# classify: the twelve criterion-8 catalog entries, each under a fresh
# random basis change, plus one seeded A3.4 and one seeded A3.5 parameter
# and one gF -> gE contraction check per round
CRITERION8 = (
    ("3A1", None), ("A2.1+A1", None), ("A3.1", None), ("A3.2", None),
    ("A3.3", None),
    ("A3.4", "1/2"), ("A3.4", "-1"), ("A3.4", "1/3"),
    ("A3.5", "0"), ("A3.5", "2"),
    ("sl2R", None), ("so3", None),
)
# refusal inputs, each run once per benchmark run under a random basis change
REFUSALS = ("irrational", "anisotropic", "nonsplit")

# enumerate: rounds of two labelled and one up-to-isomorphism order-4 runs
ENUMERATE_ORDER = 4

_POOL = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def random_basis_change(rng):
    """Invertible 3 x 3 matrix over small rationals, as strings."""
    while True:
        m = [[rng.choice(_POOL) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            return [[str(x) for x in row] for row in m]


def _random_param(rng, name):
    if name == "A3.4":
        # 0 < |a| < 1; a = 1 is the class A3.3, not a member of A3.4
        while True:
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            if 0 < abs(a) < 1:
                return str(a)
    return str(Fraction(rng.randint(0, 12), rng.randint(1, 6)))


def search_plan(seed):
    """Rounds of nine order-3 queries, one per source, the targets a seeded
    permutation, modes alternating subalgebra / subalgebra,zero_reduce.
    Every other round turns one query resonant and adds one order-4 query;
    resonant and order-4 sources cycle through seeded permutations.

    Order-4 queries use the two subalgebra modes only: the resonant search
    stops at order 3, so at order 4 it repeats the order-3 work.
    """
    rng = random.Random("search-cold/%d" % seed)
    cycles = {}

    def next_of(name):
        if not cycles.get(name):
            cycles[name] = list(ALL3)
            rng.shuffle(cycles[name])
        return cycles[name].pop()

    fast = SEARCH_MODES[:2]
    for r in itertools.count():
        targets = list(ALL3)
        rng.shuffle(targets)
        first = rng.randrange(2)
        rnd = [{"src": s, "dst": t, "modes": fast[(first + i) % 2], "order": 3}
               for i, (s, t) in enumerate(zip(ALL3, targets))]
        if r % 2 == 0:
            res_src = next_of("resonant")
            for q in rnd:
                if q["src"] == res_src:
                    q["modes"] = "resonant"
            rnd.append({"src": next_of("order4-src"), "dst": next_of("order4-dst"),
                        "modes": fast[r // 2 % 2], "order": 4})
        rng.shuffle(rnd)
        yield rnd


def search_argv(q):
    return ["search", "--from", q["src"], "--to", q["dst"],
            "--max-order", str(q["order"]), "--modes", q["modes"]]


def atlas_plan(seed):
    """One graph call per batch; the seed fixes the label order."""
    labels = list(ALL3)
    random.Random("atlas/%d" % seed).shuffle(labels)
    return {"labels": labels, "order": ATLAS_ORDER, "modes": ATLAS_MODES}


def atlas_argv(p):
    return ["graph", "--labels", ",".join(p["labels"]),
            "--max-order", str(p["order"]), "--modes", p["modes"]]


def classify_plan(seed):
    rng = random.Random("classify/%d" % seed)
    first = True
    while True:
        rnd = [{"kind": "roundtrip", "name": n, "param": p}
               for n, p in CRITERION8]
        rnd.append({"kind": "roundtrip", "name": "A3.4",
                    "param": _random_param(rng, "A3.4")})
        rnd.append({"kind": "roundtrip", "name": "A3.5",
                    "param": _random_param(rng, "A3.5")})
        rnd.append({"kind": "contract"})
        if first:
            rnd.extend({"kind": "refuse", "case": c} for c in REFUSALS)
            first = False
        rng.shuffle(rnd)
        for item in rnd:
            if item["kind"] != "contract":
                item["u"] = random_basis_change(rng)
        yield rnd


def enumerate_plan(seed):
    rng = random.Random("enumerate/%d" % seed)
    while True:
        rnd = [True, True, False]
        rng.shuffle(rnd)
        yield [{"labelled": x} for x in rnd]


def enumerate_argv(p):
    return (["enumerate-semigroups", "--order", str(ENUMERATE_ORDER)]
            + (["--labelled"] if p["labelled"] else []))


PLANS = {"search-cold": search_plan, "atlas": atlas_plan,
         "classify": classify_plan, "enumerate": enumerate_plan}
