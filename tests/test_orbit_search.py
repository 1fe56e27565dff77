"""The extremal search's symmetry cut against oracles that do not use it.

The search visits only templates that are lex-least under the point
transpositions (x, x + 1) of {1..n} and expands the orbits at its final
floor back to their labeled templates. None of the oracles here goes
through _SearchEngine: the kernel's action of an order of the variables
is checked against qftp of the realizing structure read in that order,
the near-extremal sets against a brute force over every complete
template, and the pinned maximizer lists, the engine's relabeling tables
(_relabeling) and its orbit expansion (_orbit, which closes a leaf under
(1 2) and the n-cycle) against a Template relabeling built from qftp. The
engine's keys are checked against the order of candidate_sets, and its
search against the kernel's order of type ids.
Oriented triples, whose types the orders of 1..3 permute without
commuting, pin the direction of the action.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hereditary.extremal import (_SearchEngine, candidate_sets,
                                 near_extremal_set, pow_geq, search_extremal)
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.properties import (HereditaryProperty, realized_type_space,
                                   universe_entries)
from hereditary.qftypes import atoms, qftp, type_space
from hereditary.structures import Signature
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

ORIENTED = Signature([("R", 3)])


@lru_cache(maxsize=None)
def oriented_triples():
    """Each triple holds no fact or one orientation R(a, b, c) of itself:
    7 realized types, the 6 oriented ones permuted regularly by S_3."""
    return HereditaryProperty(ORIENTED, universe_entries(
        ORIENTED, [set()] + [{("R", t)}
                             for t in itertools.permutations((1, 2, 3))]))


EVERY_FAMILY = dict(FAMILIES, **{"oriented-triples": oriented_triples})


@lru_cache(maxsize=None)
def read(p, order):
    """qftp of p's realizing structure on {1..r}, read in `order`."""
    return qftp(p.realizing_structure(), order)


def swapped_read(p, k):
    """p read with its k-th and (k+1)-th points exchanged."""
    order = list(range(1, p.r + 1))
    order[k - 1], order[k] = order[k], order[k - 1]
    return read(p, tuple(order))


def test_oriented_triples_types_are_permuted_regularly():
    space = set(realized_type_space(oriented_triples()))
    empty = {p for p in space if not any(p.facts)}
    assert len(space) == 7 and len(empty) == 1
    for p in space:
        images = {read(p, order)
                  for order in itertools.permutations((1, 2, 3))}
        # six orders, six images: S_3 acts regularly on the oriented types
        assert images == (empty if p in empty else space - empty)


@pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
def test_swapped_types_are_the_swapped_reads(name):
    H = EVERY_FAMILY[name]()
    r = H.signature.r
    checker = block_checker(H)
    # every type where the space is small, else the realized ones
    types = (type_space(H.signature) if len(atoms(H.signature)) <= 8
             else realized_type_space(H))
    cands = set(candidate_sets(H))
    for order in itertools.permutations(range(1, r + 1)):
        for p in types:
            got = checker.relabeled_set(order, checker.set_mask({p}))
            assert got == 1 << checker.type_id(read(p, order))
        # a set maps to the set of its types' images, inside the candidates
        for c in cands:
            got = checker.relabeled_set(order, checker.set_mask(c))
            want = frozenset(read(p, order) for p in c)
            assert got == checker.set_mask(want) and want in cands


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


@lru_cache(maxsize=None)
def sampled_leaves(name, n):
    """An engine of EVERY_FAMILY[name] on {1..n}, run once, and the key
    vectors of its first 20 labeled leaves, then every 997th: the orbits
    of the DFS leaves, expanded in order by _orbit."""
    engine = _SearchEngine(EVERY_FAMILY[name](), n)
    leaves = []
    count = itertools.count()

    def collect(leaf, product):
        for labeled in engine._orbit(leaf) or ():
            i = next(count)
            if i < 20 or (i - 20) % 997 == 0:
                leaves.append(labeled)

    engine.run(collect)
    return engine, leaves


def key(engine, types):
    """The engine's key of the choice set `types`."""
    return engine._key(engine.checker.set_mask(types))


def relabeled_keys(engine, leaf, values):
    """The key vector of relabel(T, perm) on engine.subsets, for the
    template T of the key vector `leaf` and the point a renamed
    values[a-1]."""
    U = relabel(engine.template(leaf),
                dict(zip(range(1, engine.n + 1), values)))
    return tuple(key(engine, U.choices[A]) for A in engine.subsets)


RELABELINGS = [(name, n) for name in sorted(FAMILIES)
               for n in range(FAMILIES[name]().signature.r,
                              FAMILIES[name]().signature.r + 2)
               ] + [("oriented-triples", 3), ("oriented-triples", 4)]


@pytest.mark.parametrize("name, n", RELABELINGS,
                         ids=["%s-n%d" % c for c in RELABELINGS])
def test_relabeling_tables_are_the_relabelings(name, n):
    if (name, n) == ("oriented-triples", 4):
        # every template is H-random there: 127^4 leaves, so sample sets
        engine = _SearchEngine(oriented_triples(), n)
        rng = random.Random(4)
        cands = candidate_sets(engine.H)
        leaves = [tuple(key(engine, rng.choice(cands)) for _ in engine.subsets)
                  for _ in range(40)]
    else:
        engine, leaves = sampled_leaves(name, n)
    for values in itertools.permutations(range(1, n + 1)):
        srcs, acts = engine._relabeling(values)
        for v in leaves:
            got = tuple(act[v[src]] for src, act in zip(srcs, acts))
            assert got == relabeled_keys(engine, v, values)


ORBITS = [(name, n) for name in sorted(FAMILIES)
          for n in range(FAMILIES[name]().signature.r,
                         FAMILIES[name]().signature.r + 3)]


@pytest.mark.parametrize("name, n", ORBITS, ids=["%s-n%d" % c for c in ORBITS])
def test_orbit_is_the_set_of_relabelings(name, n):
    engine, leaves = sampled_leaves(name, n)
    outcomes = set()
    for leaf in leaves:
        orbit = {relabeled_keys(engine, leaf, values)
                 for values in itertools.permutations(range(1, n + 1))}
        got = engine._orbit(leaf)
        if min(orbit) < leaf:
            assert got is None
        else:
            assert got == sorted(orbit)
        outcomes.add(got is None)
    # past n = r some sampled leaf is not the least of its orbit
    assert n == engine.r or outcomes == {False, True}


@pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
def test_keys_sort_in_candidate_order(name):
    # the engine's keys sort as candidate_sets lists the choice sets, and
    # every key listed has its choice set's mask in engine.masks
    H = EVERY_FAMILY[name]()
    engine = _SearchEngine(H, H.signature.r)
    cands = candidate_sets(H)
    keys = [key(engine, c) for c in cands]
    assert keys == sorted(set(keys))
    assert [engine.masks[k] for k in keys] == list(
        map(engine.checker.set_mask, cands))


# uncached copies: reordering a property's kernel ids would otherwise
# reach every later test of the shared instance
UNCACHED = {"metric-r3": (lambda: metric.metric_instance.__wrapped__(3), 5),
            "loop-triangles": (loop_triangles, 4)}


@pytest.mark.parametrize("name", sorted(UNCACHED))
def test_search_does_not_read_the_kernel_id_order(name):
    # One template checked first gives the last realized type the kernel's
    # type id 0, so the ids no longer follow realized_type_space; the
    # search still visits the candidates in its order, so the tree and
    # the maximizers are those of a fresh property.
    make, n = UNCACHED[name]

    def search(H):
        rep = search_extremal(H, n)
        return (rep.ex, rep.stats,
                [T.canonical_key() for T in rep.extremal_templates])

    H = make()
    space = realized_type_space(H)
    r = H.signature.r
    assert is_h_random(Template(H, r, {tuple(range(1, r + 1)): {space[-1]}}))
    checker = block_checker(H)
    assert [checker.type_id(p) for p in space] == [*range(1, len(space)), 0]
    got = search(H)
    assert got == search(make())
    if name == "metric-r3":
        assert (got[0], got[1]) == (2304, {"nodes": 611, "pruned": 3541})
