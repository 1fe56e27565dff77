"""The extremal search's symmetry cut against oracles that do not use it.

The search visits only templates that are lex-least under the point
transpositions (x, x + 1) of {1..n} and expands each orbit back to its
labeled templates. None of the oracles here goes through _SearchEngine:
the kernel's swap of adjacent variables is checked against qftp of the
realizing structure read in swapped order, the near-extremal sets against
a brute force over every complete template, and the pinned maximizer lists
and the engine's orbit expansion (_orbit, which closes a leaf under (1 2)
and the n-cycle) against a Template relabeling built from qftp.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from hereditary.extremal import (_SearchEngine, candidate_sets,
                                 near_extremal_set, pow_geq, search_extremal)
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.properties import realized_type_space
from hereditary.qftypes import atoms, qftp, type_space
from hereditary.templates import (Template, block_checker, is_h_random,
                                  r_subsets, sub_count)

from test_search_pins import loop_arcs, loop_triangles

FAMILIES = {
    "metric-r3": lambda: metric.metric_instance(3),
    "metric-r4": lambda: metric.metric_instance(4),
    "digraph-k2": lambda: digraphs.digraph_instance(2),
    "triples": triples.triples_instance,
    "colored": lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]),
    "loop-arcs": loop_arcs,
    "loop-triangles": loop_triangles,
}


@lru_cache(maxsize=None)
def read(p, order):
    """qftp of p's realizing structure on {1..r}, read in `order`."""
    return qftp(p.realizing_structure(), order)


def swapped_read(p, k):
    """p read with its k-th and (k+1)-th points exchanged."""
    order = list(range(1, p.r + 1))
    order[k - 1], order[k] = order[k], order[k - 1]
    return read(p, tuple(order))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_swapped_types_are_the_swapped_reads(name):
    H = FAMILIES[name]()
    r = H.signature.r
    checker = block_checker(H)
    # every type where the space is small, else the realized ones
    types = (type_space(H.signature) if len(atoms(H.signature)) <= 8
             else realized_type_space(H))
    for k in range(1, r):
        for p in types:
            got = checker.swapped_set(k, checker.set_id({p}))
            assert checker.sets[got] == (checker.type_id(swapped_read(p, k)),)
        # a set maps to the set of its types' images, inside the candidates
        cands = set(candidate_sets(H))
        for c in cands:
            got = checker.swapped_set(k, checker.set_id(c))
            want = frozenset(swapped_read(p, k) for p in c)
            assert got == checker.set_id(want) and want in cands


BRUTE = [
    ("digraph-k2", 3), ("triples", 5), ("metric-r4", 3),
    ("loop-triangles", 3), ("colored", 4),
]


def brute_force(H, n):
    """(Template, sub) for every complete H-random template on {1..n}
    whose choice sets are nonempty subsets of S_r(H)."""
    subsets = r_subsets(n, H.signature.r)
    out = []
    for sets in itertools.product(candidate_sets(H), repeat=len(subsets)):
        T = Template(H, n, dict(zip(subsets, sets)))
        if is_h_random(T):
            value, error_free = sub_count(T)
            assert error_free
            out.append((T, value))
    return out


@pytest.mark.parametrize("name, n", BRUTE, ids=["%s-n%d" % c for c in BRUTE])
def test_near_extremal_sets_equal_the_brute_force(name, n):
    H = FAMILIES[name]()
    every = brute_force(H, n)
    ex = max(value for _, value in every)
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
        a, b = (1 - eps).numerator, (1 - eps).denominator
        want = sorted(((T, value) for T, value in every
                       if pow_geq(value, b, ex, a)),
                      key=lambda pair: (-pair[1], pair[0].canonical_key()))
        found, report = near_extremal_set(H, n, eps)
        assert (report.ex, report.exact, report.truncated) == (ex, True,
                                                                False)
        assert found == want
        assert report.extremal_templates == [T for T, value in want
                                             if value == ex]


def relabel(T, perm):
    """T with point a renamed perm[a]: each type is read off its realizing
    structure in the order its points take after renaming."""
    choices = {}
    for A, types in T.choices.items():
        image = sorted(perm[a] for a in A)
        order = tuple(A.index(next(a for a in A if perm[a] == b)) + 1
                      for b in image)
        choices[tuple(image)] = {read(p, order) for p in types}
    return Template(T.property, T.n, choices)


PINNED = [
    ("digraph-k2", 5), ("metric-r3", 6), ("triples", 6), ("loop-arcs", 3),
    ("loop-triangles", 3), ("loop-triangles", 4), ("loop-triangles", 5),
]


@pytest.mark.parametrize("name, n", PINNED, ids=["%s-n%d" % c for c in PINNED])
def test_maximizer_lists_are_closed_under_relabeling(name, n):
    rep = search_extremal(FAMILIES[name](), n)
    maximizers = set(rep.extremal_templates)
    assert len(maximizers) == len(rep.extremal_templates)
    for values in itertools.permutations(range(1, n + 1)):
        perm = dict(zip(range(1, n + 1), values))
        assert {relabel(T, perm) for T in maximizers} == maximizers


def test_relabel_moves_types_with_their_points():
    # the transitive triangle 1 -> 2 -> 3, 1 -> 3, renamed by 1 <-> 3,
    # is 3 -> 2 -> 1, 3 -> 1: every arc turns around on its pair
    H = digraphs.digraph_instance(3)
    arcs = digraphs.transitive_tournament(3)
    T = Template(H, 3, {A: {qftp(arcs, A)} for A in r_subsets(3, 2)})
    U = relabel(T, {1: 3, 2: 2, 3: 1})
    for A in r_subsets(3, 2):
        (p,) = T.choices[A]
        assert U.choices[A] == {swapped_read(p, 1)}


ORBITS = [(name, n) for name in sorted(FAMILIES)
          for n in range(FAMILIES[name]().signature.r,
                         FAMILIES[name]().signature.r + 3)]


@pytest.mark.parametrize("name, n", ORBITS, ids=["%s-n%d" % c for c in ORBITS])
def test_orbit_is_the_set_of_relabelings(name, n):
    H = FAMILIES[name]()
    engine = _SearchEngine(H, n)
    leaves = []  # the first 20 labeled leaves, then every 997th
    count = itertools.count()

    def collect(cids, product):
        i = next(count)
        if i < 20 or (i - 20) % 997 == 0:
            leaves.append(cids)

    engine.run(collect)
    pos = {cid: p for p, (_, cid) in enumerate(engine.cands)}
    checker, subsets = engine.checker, engine.subsets
    outcomes = set()
    for cids in leaves:
        leaf = tuple(pos[c] for c in cids)
        T = engine.template(cids)
        orbit = set()
        for values in itertools.permutations(range(1, n + 1)):
            U = relabel(T, dict(zip(range(1, n + 1), values)))
            orbit.add(tuple(pos[checker.set_id(U.choices[A])]
                            for A in subsets))
        got = engine._orbit(leaf)
        if min(orbit) < leaf:
            assert got is None
        else:
            assert got == sorted(orbit)
        outcomes.add(got is None)
    # past n = r some sampled leaf is not the least of its orbit
    assert n == H.signature.r or outcomes == {False, True}
