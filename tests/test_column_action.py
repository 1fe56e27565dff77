"""The one relabeling action on fact masks against Structure relabelings.

structures.FactAction keeps, per fact, its image bit under every
permutation of {1..m} (a column) and reads the orbit of a mask off the
columns of its set bits. The copy tables, the class keys of count_members
and the dedup of closure and of the tests' universe expansion
(first_of_classes) all read it. Here every family's orbits are checked
against the masks of the m! relabeled Structures, every copy table against
a fact-by-fact build, and first_of_classes against a pairwise
is_isomorphic dedup.
"""

import itertools
import math

import pytest

from hereditary import properties
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, _facts, _fact_index,
                                   copy_table)
from hereditary.structures import (FactAction, Signature, Structure,
                                   class_key, first_of_classes,
                                   is_isomorphic, structure_from_mask)

from helpers import DIGRAPH_SIG, seeded
from oracles import dissolved, expanded
from test_orbit_search import oriented_triples

FAMILIES = {
    "metric-r3": lambda: metric.metric_instance(3),
    "metric-r4": lambda: metric.metric_instance(4),
    "metric-r5": lambda: metric.metric_instance(5),
    "digraph-k2": lambda: digraphs.digraph_instance(2),
    "digraph-k3": lambda: digraphs.digraph_instance(3),
    "triples": triples.triples_instance,
    "colored": lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]),
    "oriented-triples": oriented_triples,
}

CASES = [(name, m) for name in sorted(FAMILIES) for m in range(1, 6)]


def relabeled(M, perm):
    """M with each point x renamed perm[x - 1]."""
    return Structure(M.signature, M.n,
                     {name: [tuple(perm[x - 1] for x in t) for t in ts]
                      for name, ts in M.relations.items()})


def mask_of(M):
    index = _fact_index(M.signature, M.n)
    return sum(1 << index[f] for f in M.facts())


def sampled_masks(signature, m, seed):
    """The empty and the full mask, then seeded masks of three densities."""
    width = len(_facts(signature, m))
    rng = seeded(seed)
    masks = [0, (1 << width) - 1]
    for density in (0.1, 0.3, 0.6):
        masks += [sum(1 << i for i in range(width) if rng.random() < density)
                  for _ in range(3)]
    return masks


@pytest.mark.parametrize("name, m", CASES, ids=["%s-m%d" % c for c in CASES])
def test_orbit_is_the_relabeled_structures(name, m):
    signature = FAMILIES[name]().signature
    facts = _facts(signature, m)
    action = FactAction(m, facts)
    for mask in sampled_masks(signature, m, "%s-%d" % (name, m)):
        M = structure_from_mask(signature, m, facts, mask)
        images = [mask_of(relabeled(M, perm))
                  for perm in itertools.permutations(range(1, m + 1))]
        assert action.orbit(mask) == set(images)
        automorphisms = images.count(mask)
        assert class_key(action, mask) == (
            min(images), math.factorial(m) // automorphisms)


def test_columns_are_built_for_the_facts_read():
    facts = _facts(triples.SIG, 5)
    action = FactAction(5, facts)
    mask = sum(1 << i for i in (3, 40, 77, 124))
    action.orbit(mask)
    assert [i for i, col in enumerate(action.columns) if col] == \
        [3, 40, 77, 124]
    assert all(len(col) == 120 for col in action.columns if col)


def fact_by_fact_table(H, m):
    """copy_table built the former way: each entry relabeled fact by fact
    under every permutation, and each relation mask built per entry, a
    universe entry standing for its bad classes (oracles.expanded)."""
    induced, non_induced, direct = {}, set(), []
    index = _fact_index(H.signature, m)
    for f in expanded(H.forbidden):
        F = f.structure
        if F.n != m:
            continue
        if math.factorial(m) > properties.COPY_LIMIT:
            direct.append(f)
            continue
        copies = {sum(1 << index[(name, tuple(perm[x - 1] for x in t))]
                      for name, t in F.facts())
                  for perm in itertools.permutations(range(1, m + 1))}
        if f.resolved_match(H.mode) == NON_INDUCED:
            non_induced |= copies
        else:
            names = set(F.signature.names())
            relmask = sum(1 << i for (name, _), i in index.items()
                          if name in names)
            induced.setdefault(relmask, set()).update(copies)
    by_low = {}
    for c in sorted(non_induced):
        by_low.setdefault(c & -c, []).append(c)
    return (tuple((relmask, frozenset(copies))
                  for relmask, copies in induced.items()),
            tuple((low, tuple(by_low[low])) for low in sorted(by_low)),
            tuple(direct))


TWO = Signature([("E", 2), ("F", 2)])
E_ONLY, F_ONLY = Signature([("E", 2)]), Signature([("F", 2)])

TABLES = dict(FAMILIES, **{
    # an entry with no facts compiles to the one copy 0
    "empty-entry": lambda: HereditaryProperty(DIGRAPH_SIG, [
        ForbiddenEntry(Structure(DIGRAPH_SIG, 2), NON_INDUCED),
        ForbiddenEntry(Structure(DIGRAPH_SIG, 3, {"E": [(1, 1)]}),
                       NON_INDUCED)]),
    # induced entries on three signatures: one relation mask each
    "reducts": lambda: HereditaryProperty(TWO, [
        Structure(E_ONLY, 2, {"E": [(1, 2)]}),
        Structure(F_ONLY, 2, {"F": [(1, 2), (2, 1)]}),
        Structure(E_ONLY, 2, {"E": [(1, 1)]}),
        Structure(TWO, 3, {"E": [(1, 2), (2, 3)], "F": [(3, 1)]})]),
})


@pytest.mark.parametrize("name", sorted(TABLES))
def test_copy_tables_equal_the_fact_by_fact_build(name):
    H = TABLES[name]()
    H = HereditaryProperty(H.signature, H.forbidden, mode=H.mode)
    for m in H._copy_tables:
        assert dissolved(copy_table(H, m)) == fact_by_fact_table(H, m), m
    if name == "empty-entry":
        assert copy_table(H, 2)[1] == ((0, (0,)),)


def pairwise_first_of_classes(signature, n, facts, masks):
    """The masks whose structure is isomorphic to no earlier kept one."""
    kept = []
    for mask in masks:
        M = structure_from_mask(signature, n, facts, mask)
        if not any(is_isomorphic(M, N) for _, N in kept):
            kept.append((mask, M))
    return [mask for mask, _ in kept]


@pytest.mark.parametrize("r", [3, 4], ids=["metric-r3", "metric-r4"])
def test_first_of_classes_is_the_pairwise_dedup(r):
    # the universe walk of metric r: every loop-free fact set on 2 points
    # but the symmetric single distances
    signature = metric.signature(r)
    facts = [(rel, t) for rel, _ in signature.relations
             for t in ((1, 2), (2, 1))]
    good = {0b11 << 2 * i for i in range(r)}
    masks = [mask for mask in range(1 << len(facts)) if mask not in good]
    got = first_of_classes(2, facts, masks)
    assert got == pairwise_first_of_classes(signature, 2, facts, masks)
    # one class per unordered pair of relation sets on the two directions,
    # but the r good ones
    assert len(got) == (4 ** r + 2 ** r) // 2 - r


def test_first_of_classes_on_three_points():
    signature = Signature([("E", 3)])
    facts = [("E", t) for t in itertools.permutations((1, 2, 3))]
    masks = range(1 << len(facts))
    assert first_of_classes(3, facts, masks) == \
        pairwise_first_of_classes(signature, 3, facts, masks)
