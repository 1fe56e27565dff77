"""Pins of the named types and the metric triangle entries.

The oracles below build each type fact by fact over the atom list, the
way the instance modules once did; the modules' own builders must give
equal types (and the same forbidden entries, in the same order).
"""

import itertools
import random

import pytest

from hereditary.properties import INDUCED, universe_entries
from hereditary.qftypes import QfType, atoms
from hereditary.structures import Structure
from hereditary.instances import colored, digraphs, metric, mixed, triples

from oracles import expanded


def pair_type_oracle(forward, backward):
    facts = []
    for name, varmap in atoms(digraphs.SIG):
        if varmap == (1, 2):
            facts.append(forward)
        elif varmap == (2, 1):
            facts.append(backward)
        else:
            facts.append(False)
    return QfType(digraphs.SIG, facts)


def distance_type_oracle(r, i):
    sig = metric.signature(r)
    return QfType(sig, [name == "R%d" % i and set(varmap) == {1, 2}
                        for name, varmap in atoms(sig)])


def triple_type_oracle(present):
    return QfType(triples.SIG, [present and len(set(varmap)) == 3
                                for name, varmap in atoms(triples.SIG)])


def color_type_oracle(k, colors, c):
    sig = colored.signature(k, colors)
    return QfType(sig, [name == "c%s" % c and len(set(varmap)) == k
                        for name, varmap in atoms(sig)])


def metric_type_oracle(i, j, k, e_facts=None):
    e_facts = frozenset(e_facts or ())
    dist = {frozenset((1, 2)): i, frozenset((1, 3)): j, frozenset((2, 3)): k}
    facts = []
    for name, varmap in atoms(mixed.SIG):
        if name == "E":
            facts.append(varmap in e_facts)
        else:
            pair = frozenset(varmap)
            facts.append(len(pair) == 2 and name == "R%d" % dist[pair])
    return QfType(mixed.SIG, facts)


def violating_triangles_oracle(r):
    sig = metric.signature(r)
    out = []
    for i, j, k in itertools.combinations_with_replacement(range(1, r + 1), 3):
        if metric.triangle_ok(i, j, k):
            continue
        rels = {}
        for (a, b), d in (((1, 2), i), ((1, 3), j), ((2, 3), k)):
            rels.setdefault("R%d" % d, []).extend([(a, b), (b, a)])
        out.append((Structure(sig, 3, rels), INDUCED))
    return out


def test_digraph_pair_types():
    for forward, backward in itertools.product((True, False), repeat=2):
        assert (digraphs.pair_type(forward, backward)
                == pair_type_oracle(forward, backward))
    assert digraphs.P1 == pair_type_oracle(True, False)
    assert digraphs.P2 == pair_type_oracle(False, True)
    assert digraphs.P3 == pair_type_oracle(True, True)
    assert digraphs.P4 == pair_type_oracle(False, False)


@pytest.mark.parametrize("r", range(3, 8))
def test_distance_types(r):
    for i in range(1, r + 1):
        assert metric.distance_type(r, i) == distance_type_oracle(r, i)


def test_triple_types():
    assert triples.P1 == triple_type_oracle(True)
    assert triples.P2 == triple_type_oracle(False)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("colors", [[1, 2], ["a", "b", "c"]])
def test_color_types(k, colors):
    for c in colors:
        assert (colored.color_type(k, colors, c)
                == color_type_oracle(k, colors, c))


def test_metric_types():
    rng = random.Random(12)
    metric_triples = [t for t in itertools.product((1, 2, 3), repeat=3)
                      if metric.triangle_ok(*t)]
    maps = list(itertools.product((1, 2, 3), repeat=3))
    assert mixed.metric_type(2, 1, 1) == metric_type_oracle(2, 1, 1)
    for _ in range(300):
        i, j, k = rng.choice(metric_triples)
        e_facts = {m for m in maps if rng.random() < 0.5}
        assert (mixed.metric_type(i, j, k, e_facts)
                == metric_type_oracle(i, j, k, e_facts))


@pytest.mark.parametrize("r", range(3, 7))
def test_metric_forbidden_entries(r):
    single = [{("R%d" % i, (1, 2)), ("R%d" % i, (2, 1))}
              for i in range(1, r + 1)]
    want = [(f.structure, f.match)
            for f in expanded(universe_entries(metric.signature(r), single))]
    want += violating_triangles_oracle(r)
    got = [(f.structure, f.match)
           for f in expanded(metric.forbidden_entries(r))]
    assert got == want
