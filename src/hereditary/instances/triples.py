"""Triangle-free 3-uniform hypergraphs (cancellative triple systems).

Members are 3-graphs (one ternary relation holding the full permutation
orbit of each edge, no repeated-entry facts) with no pair of edges A, B
sharing two vertices whose symmetric difference lies inside a third edge.
That family has two minimal patterns: the degenerate one on 4 vertices
({123,124,134}) and the 5-vertex one ({123,124,345}).
"""

import itertools
from functools import lru_cache

from ..properties import (NON_INDUCED, ForbiddenEntry, HereditaryProperty,
                          universe_entries)
from ..qftypes import type_from_structure
from ..structures import Signature, Structure
from ..templates import Template
from .digraphs import balanced_partitions

SIG = Signature([("E", 3)])


def hypergraph(n, edges):
    """Structure from a set of 3-element edges (full permutation orbits)."""
    tuples = []
    for e in edges:
        tuples.extend(itertools.permutations(e))
    return Structure(SIG, n, {"E": tuples})


def triangle_patterns():
    return [hypergraph(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]),
            hypergraph(5, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])]


@lru_cache(maxsize=None)
def triples_instance():
    # a triple holds no edge or the full permutation orbit of one
    orbit = {("E", t) for t in itertools.permutations((1, 2, 3))}
    entries = universe_entries(SIG, [set(), orbit])
    entries += [ForbiddenEntry(F, NON_INDUCED) for F in triangle_patterns()]
    return HereditaryProperty(SIG, entries, mode=NON_INDUCED, name="triples")


P1 = type_from_structure(hypergraph(3, [(1, 2, 3)]))  # the full edge orbit
P2 = type_from_structure(hypergraph(3, []))           # no edge


def psi(T):
    """Edge set of the image 3-graph: triples whose choice set has P1."""
    return {A for A in T.subsets if P1 in T.choices[A]}


def psi_inverse(n, edges):
    """Downward-closed template of a 3-graph: P2 everywhere, P1 on edges."""
    H = triples_instance()
    choices = {}
    for A in itertools.combinations(range(1, n + 1), 3):
        ch = {P2}
        if tuple(sorted(A)) in {tuple(sorted(e)) for e in edges}:
            ch.add(P1)
        choices[A] = ch
    return Template(H, n, choices)


def downward_close(T):
    """G*: add the empty type everywhere; gains a factor 2 per changed
    triple while preserving membership of all merges."""
    choices = {A: set(ch) | {P2} for A, ch in T.choices.items()}
    return Template(T.property, T.n, choices)


def e_of_n(n):
    return (n // 3) * ((n + 1) // 3) * ((n + 2) // 3)


def tripartite_family(n):
    """Extremal images: crossing triples of a balanced tripartition."""
    out = []
    for parts in balanced_partitions(3, n):
        part_of = {}
        for idx, p in enumerate(parts):
            for x in p:
                part_of[x] = idx
        edges = {A for A in itertools.combinations(range(1, n + 1), 3)
                 if len({part_of[x] for x in A}) == 3}
        out.append(frozenset(edges))
    return out


def triples_extremal_oracle(n):
    """ex = 2^e(n); extremal images are the balanced tripartite 3-graphs."""
    return 2 ** e_of_n(n), tripartite_family(n)
