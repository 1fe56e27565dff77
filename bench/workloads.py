"""The four workloads: their inputs, made from a seed, and their checks.

A round sets up every instance of its workload (instance construction plus
`realized_type_space`) and then runs the operations, always in the order
listed here: a seeded order made peak RSS depend on the seed, since caches
filled by one operation stay alive for the next. Every round of a run does
the same operations on the same inputs. The seed makes the `hrandom`
template stream and the `containers` tau; `search` and `enumerate` have no
seeded input. Checks compare each output with `reference`, which shares no
code with the program.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import reference

SETUP = {
    "search": ["metric-r3", "metric-r4", "digraph-k2", "triples"],
    "enumerate": ["metric-r3", "metric-r4", "digraph-k2", "triples"],
    "hrandom": ["metric-r3", "metric-r4", "digraph-k2", "triples"],
    "containers": ["metric-r4", "metric-r3", "digraph-k2"],
}
# Templates per family in the hrandom stream; half are H-random by
# construction, half are drawn uniformly (mostly rejected).
HRANDOM_PER_FAMILY = 300
HRANDOM_FAMILIES = [("metric-r3", 4), ("metric-r4", 4), ("triples", 5),
                    ("digraph-k2", 5)]


def family(key):
    """(family, r) for reference calls."""
    if key.startswith("metric-r"):
        return "metric", int(key[len("metric-r"):])
    if key == "digraph-k2":
        return "digraph", None
    return "triples", None


def _search_ops(rng):
    return [{"kind": "search", "instance": "digraph-k2", "n": 4},
            {"kind": "search", "instance": "triples", "n": 5},
            {"kind": "search", "instance": "metric-r3", "n": 5},
            {"kind": "search", "instance": "metric-r4", "n": 4},
            {"kind": "probe", "instance": "metric-r3", "n": 5, "eps": [1, 10]}]


def _enumerate_ops(rng):
    return [{"kind": "count", "instance": "digraph-k2", "n": 5},
            {"kind": "count", "instance": "triples", "n": 5},
            {"kind": "count", "instance": "metric-r3", "n": 4},
            {"kind": "count", "instance": "metric-r4", "n": 3}]


def _nonempty_subsets(items):
    return [list(c) for m in range(1, len(items) + 1)
            for c in itertools.combinations(items, m)]


def _random_choices(rng, key, n, safe):
    """Choice sets on every r-subset. With `safe` they are H-random by
    construction: high distances only (metric), arcs only across a random
    bipartition (digraph), edges only across a random tripartition
    (triples). Otherwise each is a uniform nonempty subset of S_r(H)."""
    fam, r = family(key)
    if fam == "metric":
        pool = range((r + 1) // 2, r + 1) if safe else range(1, r + 1)
        options = _nonempty_subsets(list(pool))
        return [[list(A), rng.choice(options)]
                for A in itertools.combinations(range(1, n + 1), 2)]
    if fam == "digraph":
        side = [rng.randrange(2) for _ in range(n + 1)]
        cross = _nonempty_subsets(["none", "fwd", "bwd"])
        anything = _nonempty_subsets(list(reference.STATES))
        out = []
        for A in itertools.combinations(range(1, n + 1), 2):
            if not safe:
                out.append([list(A), rng.choice(anything)])
            elif side[A[0]] != side[A[1]]:
                out.append([list(A), rng.choice(cross)])
            else:
                out.append([list(A), ["none"]])
        return out
    part = [rng.randrange(3) for _ in range(n + 1)]
    options = _nonempty_subsets(["edge", "none"])
    out = []
    for A in itertools.combinations(range(1, n + 1), 3):
        if not safe or len({part[x] for x in A}) == 3:
            out.append([list(A), rng.choice(options)])
        else:
            out.append([list(A), ["none"]])
    return out


def _hrandom_ops(rng):
    ops = [{"kind": "hrandom", "instance": key, "n": n,
            "choices": _random_choices(rng, key, n, safe=i % 2 == 0)}
           for key, n in HRANDOM_FAMILIES for i in range(HRANDOM_PER_FAMILY)]
    rng.shuffle(ops)
    return ops


def _containers_ops(rng):
    tau = [1, rng.randrange(3, 10)]
    ops = []
    for key, k, n in [("metric-r4", 3, 5), ("digraph-k2", 3, 6),
                      ("metric-r3", 4, 4)]:
        build = "hypergraph %s k=%d n=%d" % (key, k, n)
        ops.append({"id": build, "kind": "hypergraph", "instance": key,
                    "k": k, "n": n})
        ops.append({"kind": "codegree", "instance": key, "of": build,
                    "k": k, "n": n, "tau": tau})
    return ops


OPS = {"search": _search_ops, "enumerate": _enumerate_ops,
       "hrandom": _hrandom_ops, "containers": _containers_ops}


def make_job(workload, seed):
    """The set-up list and the operations of one round, from the seed."""
    ops = OPS[workload](random.Random("%s-%d" % (workload, seed)))
    for i, op in enumerate(ops):
        op.setdefault("id", "%d %s %s n=%d" % (i, op["kind"], op["instance"],
                                               op["n"]))
    return {"setup": SETUP[workload], "ops": ops}


def operations(job):
    """Every operation a round attempts: one set-up per instance, then the
    timed operations."""
    return ([{"id": "setup:" + key, "kind": "setup", "instance": key}
             for key in job["setup"]] + job["ops"])


@lru_cache(maxsize=None)
def _count(fam, n, r):
    return reference.count_members(fam, n, r=r)


def check(op, out):
    """None when the output is right, else a message saying what is wrong."""
    fam, r = family(op["instance"])
    kind = op["kind"]
    if kind == "setup":
        want = reference.realized_type_count(fam, r=r)
        return None if out["types"] == want else "|S_r(H)| %s != %s" % (
            out["types"], want)
    n = op["n"]
    if kind == "search":
        want = reference.ex_closed_form(fam, n, r=r)
        if not out["exact"] or out["ex"] != want:
            return "ex %s (exact %s) != %s" % (out["ex"], out["exact"], want)
    elif kind == "probe":
        ex = reference.ex_closed_form(fam, n, r=r)
        power = Fraction(1) - Fraction(*op["eps"])
        a, b = power.numerator, power.denominator
        # sub >= ex^(a/b)  <=>  sub^b >= ex^a
        low = [s for s in out["subs"] if s ** b < ex ** a]
        gap = Fraction(*out["worst_gap"])
        if not out["subs"] or low or not 0 <= gap <= 1:
            return "near-extremal subs below ex^(1-eps): %s, gap %s" % (low, gap)
    elif kind == "count":
        want = _count(fam, n, r)
        if out["count"] != want:
            return "count %s != %s" % (out["count"], want)
    elif kind == "hrandom":
        choices = {tuple(A): set(ch) for A, ch in op["choices"]}
        want = reference.h_random(fam, n, choices, r=r)
        if out["h_random"] != want:
            return "is_h_random %s != %s" % (out["h_random"], want)
    elif kind in ("hypergraph", "codegree"):
        k = op["k"]
        rank = 3 if fam == "triples" else 2  # arity of the signature
        vertices = reference.realized_type_count(fam, r=r) * comb(n, rank)
        d = Fraction(reference.alpha(fam, k, r=r) * comb(n, k) * comb(k, rank),
                     vertices)
        if Fraction(*out["d"]) != d:
            return "average degree %s != %s" % (Fraction(*out["d"]), d)
        if kind == "hypergraph":
            alpha = reference.alpha(fam, k, r=r)
            got = (out["vertices"], out["alpha"], out["edges"])
            if got != (vertices, alpha, alpha * comb(n, k)):
                return "(|V|, alpha, |E|) %s != %s" % (
                    got, (vertices, alpha, alpha * comb(n, k)))
        elif Fraction(*out["delta"]) < 0:
            return "negative delta"
    return None
