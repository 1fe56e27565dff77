"""Metric spaces with distances in {1..r} as relational structures.

Signature: binary relations R1..Rr, one per distance value. Members are
the finite metric spaces: every pair carries exactly one symmetric
distance, no loops, and every triangle satisfies the triangle inequality.
"""

import itertools
from functools import lru_cache

from ..errors import InvalidArgument
from ..properties import (INDUCED, ForbiddenEntry, HereditaryProperty,
                          universe_entries)
from ..qftypes import type_from_structure
from ..structures import Signature, Structure
from ..templates import Template


@lru_cache(maxsize=None)
def signature(r):
    return Signature([("R%d" % i, 2) for i in range(1, r + 1)])


def triangle_ok(i, j, k):
    """|i-j| <= k <= i+j, symmetric in all three arguments."""
    i, j, k = sorted((i, j, k))
    return k <= i + j


def m_value(r):
    """Size of an optimal distance block: m(r) = floor(r/2) + 1."""
    return r // 2 + 1


def _violating_triangles(r):
    return [ForbiddenEntry(metric_space(r, 3, {(1, 2): i, (1, 3): j,
                                               (2, 3): k}), INDUCED)
            for i, j, k in itertools.combinations_with_replacement(
                range(1, r + 1), 3)
            if not triangle_ok(i, j, k)]


def forbidden_entries(r):
    """The full universe+triangle family, reusable over larger signatures.
    The universe allows one symmetric distance per pair."""
    single = [{("R%d" % i, (1, 2)), ("R%d" % i, (2, 1))}
              for i in range(1, r + 1)]
    return universe_entries(signature(r), single) + _violating_triangles(r)


@lru_cache(maxsize=None)
def metric_instance(r):
    if r < 3:
        raise InvalidArgument("need r >= 3")
    return HereditaryProperty(signature(r), forbidden_entries(r),
                              mode=INDUCED, name="metric-r%d" % r)


@lru_cache(maxsize=None)
def distance_type(r, i):
    """The pair type asserting distance i."""
    return type_from_structure(metric_space(r, 2, {(1, 2): i}))


def type_to_distance(p):
    for i in range(1, len(p.signature.relations) + 1):
        if p.fact("R%d" % i, (1, 2)):
            return i
    raise InvalidArgument("type asserts no distance")


def psi(T):
    """The set-graph of a template: pair -> set of distance values."""
    return {A: frozenset(type_to_distance(p) for p in T.choices[A])
            for A in T.subsets}


def psi_inverse(r, n, setgraph):
    """Template from a complete set-graph."""
    H = metric_instance(r)
    choices = {}
    for A, values in setgraph.items():
        if not values:
            raise InvalidArgument("set-graph must be complete")
        choices[tuple(sorted(A))] = {distance_type(r, i) for i in values}
    return Template(H, n, choices)


def metric_space(r, n, dist_map):
    """A metric structure from {pair: distance}."""
    rels = {}
    for (a, b), d in dist_map.items():
        rels.setdefault("R%d" % d, []).extend([(a, b), (b, a)])
    return Structure(signature(r), n, rels)


def maximum_matchings(n):
    """All sets of floor(n/2) disjoint pairs of [n], deterministic order."""
    def rec(remaining):
        if len(remaining) < 2:
            return [frozenset()]
        first = remaining[0]
        out = []
        for other in remaining[1:]:
            rest = [x for x in remaining[1:] if x != other]
            for m in rec(rest):
                out.append(m | {(first, other)})
        if len(remaining) % 2 == 1:
            # odd leftover: the first element may be the unmatched one
            out.extend(rec(remaining[1:]))
        return out
    return sorted(set(rec(list(range(1, n + 1)))), key=sorted)


def extremal_family(r, n):
    """Generators for the extremal set-graphs.

    Even r: the unique constant set-graph with block {r/2..r}. Odd r: one
    set-graph per maximum matching; matched pairs carry {m-1..r}, the rest
    {m..r}, with m = m(r).
    """
    m = m_value(r)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if r % 2 == 0:
        block = frozenset(range(r // 2, r + 1))
        return [{A: block for A in pairs}]
    low = frozenset(range(m - 1, r + 1))
    high = frozenset(range(m, r + 1))
    out = []
    for matching in maximum_matchings(n):
        matched = {tuple(sorted(p)) for p in matching}
        out.append({A: (low if A in matched else high) for A in pairs})
    return out


def metric_extremal_oracle(r, n):
    """Closed-form ex(n) plus the extremal set-graph family.

    Valid for n >= 3: on two points every distance is a member and there
    is no triangle, so ex(2) is r, outside the closed form.
    """
    if r < 3 or n < 3:
        raise InvalidArgument("need r >= 3 and n >= 3")
    from math import comb
    m = m_value(r)
    if r % 2 == 0:
        value = m ** comb(n, 2)
    else:
        value = m ** comb(n, 2) * (m + 1) ** (n // 2) // m ** (n // 2)
    return value, extremal_family(r, n)


def all_low_template(r, n):
    """The constant {1..m(r)} template (odd case no-stability witness)."""
    m = m_value(r)
    pairs = itertools.combinations(range(1, n + 1), 2)
    return psi_inverse(r, n, {A: frozenset(range(1, m + 1)) for A in pairs})
