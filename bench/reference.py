"""Reference computations the benchmark checks the program against.

Nothing here imports `hereditary`. Every value is computed from the
definitions of the three instance families, in the benchmark's own
representation of choice sets:

- metric (distances 1..r): a choice set on a pair is a set of distances;
- digraph (k=2, no transitive triangle): a choice set on a pair (i, j),
  i < j, is a set of arc states from STATES;
- triples (cancellative 3-graphs): a choice set on a triple is a set of
  "edge" / "none".
"""

import itertools
from math import comb

STATES = ("none", "fwd", "bwd", "both")  # fwd is i->j, bwd is j->i


def metric_m(r):
    return r // 2 + 1


def ex_closed_form(family, n, r=None):
    """ex(n) from the closed forms of the three families."""
    if family == "digraph":
        return 3 ** (n * n // 4)
    if family == "triples":
        return 2 ** ((n // 3) * ((n + 1) // 3) * ((n + 2) // 3))
    if family == "metric":
        m = metric_m(r)
        if r % 2 == 0:
            return m ** comb(n, 2)
        # m^C(n,2) * ((m+1)/m)^floor(n/2), kept in integers
        return m ** (comb(n, 2) - n // 2) * (m + 1) ** (n // 2)
    raise ValueError("unknown family %r" % family)


def triangle_ok(a, b, c):
    a, b, c = sorted((a, b, c))
    return c <= a + b


def _triangles(n):
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        yield (x, y), (x, z), (y, z)


def _arcs(pair, state):
    i, j = pair
    return {"none": (), "fwd": ((i, j),), "bwd": ((j, i),),
            "both": ((i, j), (j, i))}[state]


def _transitive(arcs):
    """Three arcs on three points that are not a directed cycle."""
    if len(arcs) != 3:
        return False
    outdeg = {}
    for a, _ in arcs:
        outdeg[a] = outdeg.get(a, 0) + 1
    return max(outdeg.values()) == 2


def digraph_member(n, states):
    """states: {pair: state}. No loops by construction; no digon on three or
    more points; no transitive triangle as a subdigraph."""
    if n >= 3 and "both" in states.values():
        return False
    for e1, e2, e3 in _triangles(n):
        arcs = set(_arcs(e1, states[e1]) + _arcs(e2, states[e2])
                   + _arcs(e3, states[e3]))
        if _transitive(arcs):
            return False
    return True


def cancellative(edges):
    """No edges A != B and C with A symmetric-difference B inside C."""
    edges = [frozenset(e) for e in edges]
    for A, B in itertools.combinations(edges, 2):
        d = A ^ B
        if len(d) == 2 and any(d <= C for C in edges):
            return False
    return True


def count_metric(r, n):
    """|H_n| for metric spaces on n points with distances in 1..r."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    total = 0
    for values in itertools.product(range(1, r + 1), repeat=len(pairs)):
        d = dict(zip(pairs, values))
        if all(triangle_ok(d[e1], d[e2], d[e3]) for e1, e2, e3 in _triangles(n)):
            total += 1
    return total


def count_digraphs(n):
    """|H_n| for loop-free digraphs with no transitive triangle (and no digon
    on three or more points)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    states = STATES if n < 3 else STATES[:3]
    return sum(1 for combo in itertools.product(states, repeat=len(pairs))
               if digraph_member(n, dict(zip(pairs, combo))))


def count_cancellative(n):
    """|H_n| for cancellative 3-graphs on n points."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    total = 0
    for mask in range(1 << len(triples)):
        edges = [t for i, t in enumerate(triples) if mask >> i & 1]
        if cancellative(edges):
            total += 1
    return total


def count_members(family, n, r=None):
    if family == "metric":
        return count_metric(r, n)
    if family == "digraph":
        return count_digraphs(n)
    if family == "triples":
        return count_cancellative(n)
    raise ValueError("unknown family %r" % family)


def realized_type_count(family, r=None):
    """|S_r(H)|: one type per distance; four arc patterns on a pair (a digon
    is a member on two points); edge or no edge on a triple."""
    return {"metric": r, "digraph": 4, "triples": 2}[family]


def h_random(family, n, choices, r=None):
    """Is the template with these choice sets H-random?

    metric: every cross choice on each triangle is metric.
    digraph: no digon is chosen (n >= 3) and no choice of arcs on a
    triangle is transitive.
    triples: the triples that may carry an edge form a cancellative
    3-graph, which excludes both {123,124,134} (three triples in a 4-block)
    and {123,124,345}; deleting edges keeps a 3-graph cancellative, so
    every choice is then a member.
    """
    if family == "metric":
        return all(triangle_ok(a, b, c)
                   for e1, e2, e3 in _triangles(n)
                   for a in choices[e1] for b in choices[e2]
                   for c in choices[e3])
    if family == "digraph":
        if n >= 3 and any("both" in ch for ch in choices.values()):
            return False
        for e1, e2, e3 in _triangles(n):
            for s1, s2, s3 in itertools.product(choices[e1], choices[e2],
                                                choices[e3]):
                if _transitive(set(_arcs(e1, s1) + _arcs(e2, s2)
                                   + _arcs(e3, s3))):
                    return False
        return True
    if family == "triples":
        return cancellative(A for A, ch in choices.items() if "edge" in ch)
    raise ValueError("unknown family %r" % family)


def alpha(family, k, r=None):
    """Edges of the containers hypergraph on one k-block: the assignments of
    one realized type to each r-subset of the block that are not members."""
    if family == "metric":
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        return r ** len(pairs) - count_metric(r, k)
    if family == "digraph":
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        return sum(1 for combo in itertools.product(STATES, repeat=len(pairs))
                   if not digraph_member(k, dict(zip(pairs, combo))))
    raise ValueError("unknown family %r" % family)
