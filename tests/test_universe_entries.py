"""The instance families against their former per-family builders.

metric, triples and colored used to build their universe axioms (one
allowed r-point type per r-subset, no fact repeating an element) with
their own loop-entry and bad-block builders. Those builders are copied
here as the oracle. The families now declare one UniverseEntry, which
stands for the induced bad-class entries (oracles.expanded); so expanded,
they must keep the same forbidden entries in the same order (up to the
isomorphic triples loop representative), the same copy tables, the same
verdict on every loop-free r-point mask and every such mask with one loop
fact added, the same realized type space and the same member counts.
"""

import itertools
import time

import pytest

from hereditary.errors import BudgetExceeded
from hereditary.instances import colored, metric, mixed, triples
from hereditary.instances.colored import all_one_triangle
from hereditary.properties import (INDUCED, NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, UniverseEntry,
                                   _facts, _gathers, _holds_copy, copy_table,
                                   count_members, realized_type_space)
from hereditary.structures import (Signature, Structure, first_of_classes,
                                   is_isomorphic, structure_from_mask)

from oracles import dissolved, expanded


# ---------- the former builders ----------

def _metric_loop_entries(r):
    out = []
    for i in range(1, r + 1):
        sig = Signature([("R%d" % i, 2)])
        out.append(ForbiddenEntry(
            Structure(sig, 1, {"R%d" % i: [(1, 1)]}), NON_INDUCED))
    return out


def _metric_bad_pair_entries(r):
    facts = [("R%d" % i, t) for i in range(1, r + 1)
             for t in ((1, 2), (2, 1))]
    good = {0b11 << 2 * i for i in range(r)}
    masks = [mask for mask in range(1 << len(facts)) if mask not in good]
    return [ForbiddenEntry(structure_from_mask(metric.signature(r), 2, facts,
                                               mask), INDUCED)
            for mask in first_of_classes(2, facts, masks)]


def _triples_loop_entries():
    reps = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    return [ForbiddenEntry(Structure(triples.SIG, max(t), {"E": [t]}),
                           NON_INDUCED) for t in reps]


def _triples_asymmetry_entries():
    facts = [("E", t) for t in itertools.permutations((1, 2, 3))]
    return [ForbiddenEntry(structure_from_mask(triples.SIG, 3, facts, mask),
                           INDUCED)
            for mask in first_of_classes(3, facts, range(1, (1 << 6) - 1))]


def _colored_repeated_patterns(k):
    out = []
    for t in itertools.product(range(1, k + 1), repeat=k):
        distinct = []
        for x in t:
            if x not in distinct:
                distinct.append(x)
        if len(distinct) == k:
            continue
        if distinct == list(range(1, len(distinct) + 1)):
            out.append(t)
    return out


def _colored_loop_entries(k, colors):
    out = []
    for c in colors:
        sig = Signature([("c%s" % c, k)])
        for t in _colored_repeated_patterns(k):
            out.append(ForbiddenEntry(
                Structure(sig, max(t), {"c%s" % c: [t]}), NON_INDUCED))
    return out


def _colored_bad_block_entries(k, colors):
    perms = list(itertools.permutations(range(1, k + 1)))
    facts = [("c%s" % c, t) for c in colors for t in perms]
    block = (1 << len(perms)) - 1
    good = {block << i * len(perms) for i in range(len(colors))}
    masks = [mask for mask in range(1 << len(facts)) if mask not in good]
    return [ForbiddenEntry(structure_from_mask(colored.signature(k, colors), k,
                                               facts, mask), INDUCED)
            for mask in first_of_classes(k, facts, masks)]


# ---------- the families, old and new ----------

def _old_metric_entries(r):
    return (_metric_loop_entries(r) + _metric_bad_pair_entries(r)
            + metric._violating_triangles(r))


ALL_ONE_K3 = (4, {A: 1 for A in itertools.combinations(range(1, 5), 3)})

COLORED = {
    "colored-k2-c2": (2, [1, 2], [all_one_triangle()]),
    "colored-k2-c3": (2, [1, 2, 3], [all_one_triangle()]),
    "colored-k3-c2": (3, [1, 2], [ALL_ONE_K3]),
}


def _old_colored(k, colors, forbidden):
    entries = (_colored_loop_entries(k, colors)
               + _colored_bad_block_entries(k, colors))
    for m, coloring in forbidden:
        entries.append(ForbiddenEntry(
            colored.coloring_structure(k, colors, m, coloring), INDUCED))
    return HereditaryProperty(colored.signature(k, colors), entries,
                              mode=INDUCED, name="colored-k%d" % k)


def _old_triples():
    entries = _triples_loop_entries() + _triples_asymmetry_entries()
    entries += [ForbiddenEntry(F, NON_INDUCED)
                for F in triples.triangle_patterns()]
    return HereditaryProperty(triples.SIG, entries, mode=NON_INDUCED,
                              name="triples")


# name -> (old property, new property, largest n counted)
def _families():
    out = {}
    for r in (3, 4, 5, 6):
        out["metric-r%d" % r] = (
            lambda r=r: HereditaryProperty(metric.signature(r),
                                           _old_metric_entries(r)),
            lambda r=r: HereditaryProperty(metric.signature(r),
                                           metric.forbidden_entries(r)),
            4)
    out["triples"] = (_old_triples, triples.triples_instance, 4)
    for name, (k, colors, forbidden) in COLORED.items():
        out[name] = (
            lambda k=k, c=colors, f=forbidden: _old_colored(k, c, f),
            lambda k=k, c=colors, f=forbidden: colored.colored_instance(k, c,
                                                                        f),
            4)
    out["mixed"] = (
        lambda: HereditaryProperty(mixed.SIG, _old_metric_entries(3),
                                   mode=INDUCED),
        mixed.mixed_instance, 2)
    return out


FAMILIES = _families()


def _same_entries(old, new):
    new = expanded(new)
    assert len(old) == len(new)
    for a, b in zip(old, new):
        assert (a.structure, a.match) == (b.structure, b.match)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_metric_entries_match_the_former_builders(r):
    _same_entries(_old_metric_entries(r), metric.forbidden_entries(r))


@pytest.mark.parametrize("name", sorted(COLORED))
def test_colored_entries_match_the_former_builders(name):
    k, colors, forbidden = COLORED[name]
    _same_entries(_old_colored(k, colors, forbidden).forbidden,
                  colored.colored_instance(k, colors, forbidden).forbidden)


def test_triples_entries_match_up_to_the_loop_representative():
    old = _old_triples().forbidden
    new = expanded(triples.triples_instance().forbidden)
    assert len(old) == len(new)
    differ = [(a, b) for a, b in zip(old, new)
              if (a.structure, a.match) != (b.structure, b.match)]
    assert len(differ) <= 1
    for a, b in differ:
        assert a.match == b.match == NON_INDUCED
        assert is_isomorphic(a.structure, b.structure)


def _table_sets(H):
    """Each copy table as sets: size -> (induced copies per relation mask,
    non-induced copies, uncompiled entries)."""
    out = {}
    for m in H._copy_tables:
        induced, non_induced, direct = dissolved(copy_table(H, m))
        out[m] = (dict(induced),
                  {c for _, copies in non_induced for c in copies},
                  [(f.structure, f.match) for f in direct])
    return out


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_copy_tables_type_space_and_counts_match(name):
    old_make, new_make, n_max = FAMILIES[name]
    old, new = old_make(), new_make()
    assert _table_sets(old) == _table_sets(new)
    if name == "mixed":
        # E is free, so S_3 is over TYPE_SPACE_LIMIT under both families
        for H in (old, new):
            with pytest.raises(BudgetExceeded):
                realized_type_space(H)
    else:
        assert realized_type_space(old) == realized_type_space(new)
    for n in range(1, n_max + 1):
        assert count_members(old, n) == count_members(new, n), n


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_compiled_universe_gives_the_former_verdicts(name):
    # At the universe's size r, on every mask of loop-free facts and on
    # each of those with one loop fact added, the compiled universe and the
    # former builders' induced bad-class entries hold a copy alike.
    old_make, new_make, _ = FAMILIES[name]
    old, new = old_make(), new_make()
    universe, = [f for f in new.forbidden if isinstance(f, UniverseEntry)]
    m = universe.n
    facts = _facts(new.signature, m)
    gathers = _gathers(new.signature, m, m)
    old_table, new_table = copy_table(old, m), copy_table(new, m)
    assert new_table[3] and not old_table[3]
    free = [1 << i for i, (_, t) in enumerate(facts) if len(set(t)) == m]
    loops = [0] + [1 << i for i, (_, t) in enumerate(facts)
                   if len(set(t)) < m]
    verdicts = set()
    for bits in itertools.product((0, 1), repeat=len(free)):
        x = sum(bit for bit, b in zip(free, bits) if b)
        for loop in loops:
            want = _holds_copy(old, m, old_table, gathers, x | loop)
            assert _holds_copy(new, m, new_table, gathers, x | loop) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_universe_space_is_bounded():
    # metric r=12 has 24 facts on a pair: its pair step has 2^24 choices,
    # more than the budget, so the type space is refused before they are
    # checked
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="2\\^24"):
        realized_type_space(metric.metric_instance(12))
    assert time.perf_counter() - start < 1


def test_metric_r8_builds_without_walking_its_universe():
    # the universe is declared, not walked: 2^16 fact sets on a pair
    start = time.perf_counter()
    H = metric.metric_instance(8)
    assert time.perf_counter() - start < 0.2
    assert sorted(realized_type_space(H)) == sorted(
        metric.distance_type(8, i) for i in range(1, 9))
