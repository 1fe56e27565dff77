"""Pins that do not depend on the bit order of fact masks.

A fact mask is a set of facts on {1..n}, one bit per fact. The labeled
member stream, the member counts, the copy tables read as sets of fact
sets, and the realized type space must not change when the order of those
bits does. The stream is pinned by the md5 of repr(M) over the members in
stream order.
"""

import hashlib
import itertools
import math

import pytest

from hereditary import properties
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.instances.colored import all_one_triangle
from hereditary.properties import (NON_INDUCED, copy_table, count_members,
                                   enumerate_members, realized_type_space)

# name: (property, n, members on n points, md5 of their stream,
#        members on n + 1 points, md5 of repr(realized_type_space))
CASES = {
    "digraph-k2": (lambda: digraphs.digraph_instance(2), 4, 317,
                   "26e9a4045dbee5b8de4f04a2c542123c", 9735,
                   "79ac21250b0a82112483ce6460115fbf"),
    "digraph-k3": (lambda: digraphs.digraph_instance(3), 4, 705,
                   "cf12262a53c2dc7650e00b8e21a30c0f", 51369,
                   "79ac21250b0a82112483ce6460115fbf"),
    "metric-r3": (lambda: metric.metric_instance(3), 4, 482,
                  "19e1f315584e27e8a4dcb39c204ae862", 23352,
                  "d305b1f5fe0f5eb62de653735fcff43b"),
    "metric-r4": (lambda: metric.metric_instance(4), 3, 52,
                  "185374612584307c5b9f20bc09873108", 2030,
                  "3820473c707f89c493d7bb3d4677affc"),
    "triples": (triples.triples_instance, 5, 141,
                "b26a7a3f253d2f45a2176c297446dc3c", 4738,
                "73578d811d806c21b94edfe79032a4db"),
    "colored": (lambda: colored.colored_instance(2, [1, 2],
                                                 [all_one_triangle()]),
                5, 388, "c6c62cf859922bed5b3cc14a4479a512", 5789,
                "1ac15bee13734e0cc401b6e9e5d126ba"),
}


def _md5(text):
    return hashlib.md5(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_and_counts(name):
    make, n, members, digest, next_count, _ = CASES[name]
    H = make()
    stream = [repr(M) for M in enumerate_members(H, n)]
    assert len(stream) == members
    assert _md5("".join(stream)) == digest
    assert count_members(H, n) == members
    assert count_members(H, n + 1) == next_count


@pytest.mark.parametrize("name", sorted(CASES))
def test_realized_type_space(name):
    make, _, _, _, _, digest = CASES[name]
    assert _md5(repr(realized_type_space(make()))) == digest


def _copies(F, m):
    """The fact sets of the m! relabelings of F on {1..m}."""
    return {frozenset((name, tuple(perm[x - 1] for x in t))
                      for name, t in F.facts())
            for perm in itertools.permutations(range(1, m + 1))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_copy_tables_as_fact_sets(name):
    # Each table read back through the fact of each bit, against the
    # relabelings of the entries themselves.
    H = CASES[name][0]()
    for m in H._copy_tables:
        facts = list(properties._fact_index(H.signature, m))

        def fact_set(mask):
            return frozenset(f for i, f in enumerate(facts) if mask >> i & 1)

        induced, non_induced, direct = copy_table(H, m)
        got_induced = {fact_set(relmask): {fact_set(c) for c in copies}
                       for relmask, copies in induced}
        got_non_induced = {fact_set(c) for _, copies in non_induced
                           for c in copies}
        want_induced, want_non_induced, want_direct = {}, set(), []
        for f in H.forbidden:
            if f.structure.n != m:
                continue
            if math.factorial(m) > properties.COPY_LIMIT:
                want_direct.append(f)
            elif f.resolved_match(H.mode) == NON_INDUCED:
                want_non_induced |= _copies(f.structure, m)
            else:
                names = set(f.structure.signature.names())
                relfacts = frozenset(fact for fact in facts
                                     if fact[0] in names)
                want_induced.setdefault(relfacts, set()).update(
                    _copies(f.structure, m))
        assert got_induced == want_induced, m
        assert got_non_induced == want_non_induced, m
        assert list(direct) == want_direct, m
