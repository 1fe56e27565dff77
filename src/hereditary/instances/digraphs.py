"""Digraphs forbidding the transitive tournament T_{k+1} as a subdigraph.

Members are loop-free digraphs with no T_{k+1} subdigraph and, on three or
more points, no digon: the two-point digon stays a member so all four pair
types are realized, but a digon cannot occur inside any larger member
(otherwise the subpattern count would not be the oriented-subgraph count
the closed form relies on).
"""

import itertools
from functools import lru_cache

from ..errors import InvalidArgument
from ..properties import NON_INDUCED, ForbiddenEntry, HereditaryProperty
from ..qftypes import type_from_structure
from ..structures import Signature, Structure
from ..templates import Template

SIG = Signature([("E", 2)])


def transitive_tournament(size):
    return Structure(SIG, size,
                     {"E": [(i, j) for i in range(1, size + 1)
                            for j in range(i + 1, size + 1)]})


@lru_cache(maxsize=None)
def digraph_instance(k):
    if k < 2:
        raise InvalidArgument("need k >= 2")
    loop = Structure(SIG, 1, {"E": [(1, 1)]})
    digon_plus_vertex = Structure(SIG, 3, {"E": [(1, 2), (2, 1)]})
    entries = [ForbiddenEntry(transitive_tournament(k + 1), NON_INDUCED),
               ForbiddenEntry(loop, NON_INDUCED),
               ForbiddenEntry(digon_plus_vertex, NON_INDUCED)]
    return HereditaryProperty(SIG, entries, mode=NON_INDUCED,
                              name="digraph-k%d" % k)


def pair_type(forward, backward):
    """The pair type with the given arc pattern on (x,y)."""
    arcs = [arc for arc, b in (((1, 2), forward), ((2, 1), backward)) if b]
    return type_from_structure(Structure(SIG, 2, {"E": arcs}))


P1 = pair_type(True, False)
P2 = pair_type(False, True)
P3 = pair_type(True, True)
P4 = pair_type(False, False)


def psi(T):
    """The digraph image: arcs contributed by any chosen type."""
    arcs = set()
    for (u, v) in T.subsets:
        ch = T.choices[(u, v)]
        if P1 in ch or P3 in ch:
            arcs.add((u, v))
        if P2 in ch or P3 in ch:
            arcs.add((v, u))
    return arcs


def psi_inverse(k, n, arcs):
    """The downward-closed template of a digraph: each pair carries the
    empty type plus the orientations present (never the digon type)."""
    H = digraph_instance(k)
    choices = {}
    for u, v in itertools.combinations(range(1, n + 1), 2):
        ch = {P4}
        if (u, v) in arcs:
            ch.add(P1)
        if (v, u) in arcs:
            ch.add(P2)
        choices[(u, v)] = ch
    return Template(H, n, choices)


def downward_close(T):
    """G*: drop the digon type, add the empty type, on every pair."""
    choices = {A: (set(ch) - {P3}) | {P4} for A, ch in T.choices.items()}
    return Template(T.property, T.n, choices)


def turan_partition_sizes(k, n):
    q, rem = divmod(n, k)
    return [q + 1] * rem + [q] * (k - rem)


def turan_edges(k, n):
    sizes = turan_partition_sizes(k, n)
    return (n * n - sum(s * s for s in sizes)) // 2


def balanced_partitions(k, n):
    """All partitions of [n] into k balanced parts (as sorted part tuples)."""
    sizes = turan_partition_sizes(k, n)

    def rec(remaining, sizes_left):
        if not sizes_left:
            return [()]
        size = sizes_left[0]
        out = []
        for part in itertools.combinations(remaining, size):
            left = [x for x in remaining if x not in part]
            for tail in rec(left, sizes_left[1:]):
                out.append((part,) + tail)
        return out

    parts_list = rec(list(range(1, n + 1)), sizes)
    canonical = set()
    for parts in parts_list:
        canonical.add(tuple(sorted(tuple(sorted(p)) for p in parts)))
    return sorted(canonical)


def dt_family(k, n):
    """DT_k(n): Turan graphs with every edge replaced by a digon."""
    out = []
    for parts in balanced_partitions(k, n):
        part_of = {}
        for idx, p in enumerate(parts):
            for x in p:
                part_of[x] = idx
        arcs = set()
        for u, v in itertools.combinations(range(1, n + 1), 2):
            if part_of[u] != part_of[v]:
                arcs.add((u, v))
                arcs.add((v, u))
        out.append(frozenset(arcs))
    return out


def digraph_extremal_oracle(k, n):
    """ex = 3^t_k(n), with the DT_k(n) images as the extremal family.

    Valid for n >= 3: on two points the digon is still a member, so ex(2)
    is 4, outside the closed form.
    """
    if n < 3:
        raise InvalidArgument("closed form requires n >= 3")
    return 3 ** turan_edges(k, n), dt_family(k, n)
