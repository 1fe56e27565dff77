"""The block kernel on fact masks against the direct definitions.

The kernel merges located types as (true facts, false facts) mask pairs
and reads membership from copy tables (properties.mask_is_member). The
oracles here share none of that: merge_entries builds the merged
structure, and membership is `not any(entry_matches)` over the forbidden
family. Each property is built fresh, so every table is computed by the
test; with COPY_LIMIT patched low, every entry on 3 or more points goes
through the entry_matches fallback of the kernel too.
"""

import itertools
from math import comb

import pytest

from hereditary import diagrams, properties, templates
from hereditary.diagrams import LocatedType, merge_entries
from hereditary.extremal import _SearchEngine, search_extremal
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, realized_type_space)
from hereditary.qftypes import QfType, type_space
from hereditary.structures import Structure
from hereditary.templates import (Template, block_checker, is_h_random,
                                  is_h_random_direct, located_agree,
                                  r_subsets)

from helpers import seeded

FAMILIES = {
    "metric-r3": lambda: metric.metric_instance(3),
    "metric-r4": lambda: metric.metric_instance(4),
    "digraph-k2": lambda: digraphs.digraph_instance(2),
    "digraph-k3": lambda: digraphs.digraph_instance(3),
    "triples": triples.triples_instance,
    "colored": lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]),
    # loops free, T_3 forbidden: located types can disagree on a loop
    "loop-digraphs": lambda: HereditaryProperty(digraphs.SIG, [ForbiddenEntry(
        digraphs.transitive_tournament(3), NON_INDUCED)], mode=NON_INDUCED),
}
ARC = Structure(digraphs.SIG, 2, {"E": [(1, 2)]})
LOOPS = Structure(digraphs.SIG, 3, {"E": [(1, 1), (2, 2), (3, 3)]})
# Mixed properties with at most 12 types, so the search runs on them.
MIXED = {
    "loop-arcs": lambda: HereditaryProperty(
        digraphs.SIG, [ForbiddenEntry(ARC, NON_INDUCED)], mode=NON_INDUCED),
    "loop-triangles": lambda: HereditaryProperty(
        digraphs.SIG, [ForbiddenEntry(ARC, NON_INDUCED),
                       ForbiddenEntry(LOOPS, NON_INDUCED)], mode=NON_INDUCED),
}


def fresh(name, monkeypatch, fallback):
    """A new copy of the property (no cached tables); with `fallback`,
    only entries on at most 2 points are compiled."""
    H = {**FAMILIES, **MIXED}[name]()
    if fallback:
        monkeypatch.setattr(properties, "COPY_LIMIT", 2)
    return HereditaryProperty(H.signature, H.forbidden, mode=H.mode)


_DIRECT = {}


def direct(H, size, types):
    """None when the types on the relative r-subsets of {1..size} disagree,
    else whether their merge contains no forbidden entry. Memoized on the
    family, since copies share it."""
    key = (H.forbidden, H.mode, size, types)
    if key not in _DIRECT:
        _DIRECT[key] = _direct(H, size, types)
    return _DIRECT[key]


def _direct(H, size, types):
    rel = itertools.combinations(range(1, size + 1), H.signature.r)
    N = merge_entries([LocatedType(A, p) for A, p in zip(rel, types)],
                      n=size, signature=H.signature)
    if N is None:
        return None
    return not any(H.entry_matches(f, N) for f in H.forbidden)


def pair_ok(A1, p, A2, q):
    """The former pair check: do the two located types merge?"""
    return merge_entries([LocatedType(A1, p), LocatedType(A2, q)]) is not None


@pytest.mark.parametrize("fallback", [False, True], ids=["compiled", "fallback"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_outcome_matches_the_direct_definition(name, fallback,
                                                     monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel called is_member")

    H = fresh(name, monkeypatch, fallback)
    monkeypatch.setattr(templates, "is_member", forbidden)
    monkeypatch.setattr(properties, "is_member", forbidden)
    r = H.signature.r
    space = realized_type_space(H)
    checker = block_checker(H)
    ids = {p: checker.type_id(p) for p in space}
    for size in range(r, max(H.k, r) + 1):
        for types in itertools.product(space, repeat=comb(size, r)):
            want = direct(H, size, types)
            assert checker.outcome(size, tuple(ids[p] for p in types)) is want


@pytest.mark.parametrize("fallback", [False, True], ids=["compiled", "fallback"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_allowed_types_are_the_and_over_the_product(name, fallback,
                                                    monkeypatch):
    H = fresh(name, monkeypatch, fallback)
    r = H.signature.r
    space = realized_type_space(H)
    checker = block_checker(H)
    every = sum(1 << checker.type_id(p) for p in space)
    options = [frozenset(c) for m in range(1, min(3, len(space)) + 1)
               for c in itertools.combinations(space, m)]
    rng = seeded(707)
    for size in range(r, max(H.k, r) + 1):
        for _ in range(15):
            sets = [rng.choice(options) for _ in range(comb(size, r) - 1)]
            prefix = tuple(checker.set_id(c) for c in sets)
            allowed = checker.allowed(size, prefix, every)
            for q in space:
                want = all(direct(H, size, types + (q,)) is not False
                           for types in itertools.product(*sets))
                assert bool(allowed >> checker.type_id(q) & 1) == want
            # a later query reads the same table
            last = frozenset(rng.choice(options))
            assert checker.block_verdict(size, prefix + (
                checker.set_id(last),)) == all(
                    allowed >> checker.type_id(q) & 1 for q in last)


# Families on the digraph signature: its 16 types, realized or not, are all
# checked. The others are checked on a seeded sample (see type_pool).
FULL_SPACE = ["digraph-k2", "loop-digraphs", "loop-arcs", "loop-triangles"]
SAMPLED = ["metric-r3", "metric-r4", "triples"]


def type_pool(H, name, rng):
    """The types to check: every type of the signature for FULL_SPACE, else
    the realized ones and eight unrealized ones, six of them a realized type
    with one or two facts flipped and two with uniform random facts."""
    if name in FULL_SPACE:
        return type_space(H.signature)
    space = realized_type_space(H)
    pool = list(space)
    while len(pool) < len(space) + 8:
        if len(pool) < len(space) + 6:
            facts = list(rng.choice(space).facts)
            for i in rng.sample(range(len(facts)), rng.choice([1, 2])):
                facts[i] = not facts[i]
        else:
            facts = [rng.random() < 0.5 for _ in space[0].facts]
        p = QfType(H.signature, facts)
        if p not in pool:
            pool.append(p)
    return pool


def assignments(rng, pool, count, exhaustive):
    """Every assignment of `pool` to `count` subsets when there are at most
    `exhaustive` of them, else that many seeded random ones."""
    if len(pool) ** count <= exhaustive:
        return list(itertools.product(pool, repeat=count))
    return [tuple(rng.choice(pool) for _ in range(count))
            for _ in range(exhaustive)]


def check_sizes(H, checker, pool, ids, rng, exhaustive):
    """outcome, allowed and block_verdict against direct() on every block
    size r..k: for every type of `pool` (their ids in `ids`) at size r,
    and for its realized types only above r, where the kernel is asked
    about no other."""
    r = H.signature.r
    realized = set(realized_type_space(H))
    for size in range(r, max(H.k, r) + 1):
        types_here = pool if size == r else [p for p in pool
                                             if p in realized]
        every = sum(1 << ids[p] for p in types_here)
        count = comb(size, r)
        for types in assignments(rng, types_here, count, exhaustive):
            want = direct(H, size, types)
            assert checker.outcome(size, tuple(ids[p] for p in types)) is want
        for _ in range(20):
            # at most 16 choice functions per prefix, to bound direct()
            sets, combos = [], 1
            for _ in range(count - 1):
                c = frozenset(rng.sample(types_here, min(
                    len(types_here),
                    2 if combos < 16 and rng.random() < 0.4 else 1)))
                sets.append(c)
                combos *= len(c)
            prefix = tuple(checker.set_id(c) for c in sets)
            allowed = checker.allowed(size, prefix, every)
            for q in types_here:
                want = all(direct(H, size, types + (q,)) is not False
                           for types in itertools.product(*sets))
                assert bool(allowed >> ids[q] & 1) == want
            last = frozenset(rng.sample(types_here, min(
                len(types_here), rng.choice([1, 2]))))
            assert checker.block_verdict(size, prefix + (
                checker.set_id(last),)) == all(
                    allowed >> ids[q] & 1 for q in last)


def check_unrealized_templates(H, pool, rng):
    """is_h_random against is_h_random_direct on seeded templates on r + 1
    points that hold an unrealized type of `pool`: realized choice sets
    of one or two types, one of them with an unrealized type added."""
    r = H.signature.r
    realized = set(realized_type_space(H))
    unrealized = [p for p in pool if p not in realized]
    subsets = r_subsets(r + 1, r)
    for _ in range(10):
        choices = {A: set(rng.sample(sorted(realized), min(
            len(realized), rng.choice([1, 2])))) for A in subsets}
        choices[rng.choice(subsets)].add(rng.choice(unrealized))
        T = Template(H, r + 1, choices)
        assert is_h_random(T) == is_h_random_direct(T)


@pytest.mark.parametrize("fallback", [False, True], ids=["compiled", "fallback"])
@pytest.mark.parametrize("name", FULL_SPACE + SAMPLED)
def test_unrealized_types_match_the_direct_definition(name, fallback,
                                                      monkeypatch):
    # Half of the pool, with unrealized types among it, gets its ids only
    # after the tables of every block size are built, so type_id locates
    # it in each of them. Above r points the kernel is asked about realized
    # types only (is_h_random rejects an unrealized one at size r first),
    # so unrealized types are checked there through whole templates.
    H = fresh(name, monkeypatch, fallback)
    r = H.signature.r
    rng = seeded(1313)
    pool = type_pool(H, name, rng)
    realized = set(realized_type_space(H))
    rng.shuffle(pool)
    # late: every other realized and every other unrealized type, the
    # first unrealized one included
    kinds = [[p for p in pool if p in realized],
             [p for p in pool if p not in realized]]
    early = [p for kind in kinds for p in kind[1::2]]
    late = [p for kind in kinds for p in kind[::2]]
    assert realized.issuperset(pool) or not realized.issuperset(late)
    checker = block_checker(H)
    exhaustive = 4096 if name in FULL_SPACE else 300
    ids = {p: checker.type_id(p) for p in early}
    check_sizes(H, checker, early, ids, rng, exhaustive)
    assert set(checker.sizes) == set(range(r, max(H.k, r) + 1))
    ids.update((p, checker.type_id(p)) for p in late)
    check_sizes(H, checker, pool, ids, rng, exhaustive)
    if not realized.issuperset(pool):
        check_unrealized_templates(H, pool, rng)


@pytest.mark.parametrize("name", ["loop-digraphs"] + sorted(MIXED))
def test_located_agree_is_the_former_pair_ok(name, monkeypatch):
    H = fresh(name, monkeypatch, False)
    r = H.signature.r
    space = realized_type_space(H)
    n = 4
    for A1, A2 in itertools.permutations(r_subsets(n, r), 2):
        for p, q in itertools.product(space, repeat=2):
            assert located_agree(H.signature, n, A1, p, A2, q) == pair_ok(
                A1, p, A2, q)


@pytest.mark.parametrize("name", sorted(MIXED))
def test_search_masks_are_the_former_checks(name, monkeypatch):
    # Every check mask of the search against the former per-candidate
    # checks: pair_ok over both choice sets, and the block verdict.
    H = fresh(name, monkeypatch, False)
    engine = _SearchEngine(H, 4)
    assert engine.mixed
    sets, cands = engine.sets, engine.cands
    for i, A in enumerate(engine.subsets):
        for j in range(i):
            B = engine.subsets[j]
            for _, cid in cands:
                want = sum(1 << pos for pos, (_, c) in enumerate(cands)
                           if all(pair_ok(B, p, A, q)
                                  for p in sets[cid] for q in sets[c]))
                got = engine._pair_mask(j, i, cid)
                assert got == want
    checker = engine.checker
    rng = seeded(909)
    for size in range(engine.r + 1, min(H.k, engine.n) + 1):
        for _ in range(20):
            prefix = tuple(rng.choice(cands)[1]
                           for _ in range(comb(size, engine.r) - 1))
            want = sum(1 << pos for pos, (_, c) in enumerate(cands)
                       if checker.block_verdict(size, prefix + (c,)))
            assert engine._block_mask(size, prefix) == want


@pytest.mark.parametrize("name", ["metric-r3", "digraph-k2", "triples"])
def test_search_builds_no_merge_and_no_member_lookup(name, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the search kernel called the slow path")

    H = fresh(name, monkeypatch, False)
    monkeypatch.setattr(diagrams, "merge_entries", forbidden)
    monkeypatch.setattr(templates, "is_member", forbidden)
    monkeypatch.setattr(properties, "is_member", forbidden)
    assert search_extremal(H, 4).exact
