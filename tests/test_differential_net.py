"""A seeded differential net over small random properties.

Each property is drawn from a fixed seed: 1-3 forbidden entries on at most
4 points, each on the signature E/2, P/1 or one of its one-relation
reducts, each matched induced or not. Loops and P are facts on fewer than
r = 2 points, so templates can have errors. Every draw is kept. On each
property the fast paths are checked against their direct definitions:

- is_h_random against is_h_random_direct, on seeded templates on 3 and 4
  points whose choice sets hold realized and unrealized types;
- validate_template against membership in realized_type_space;
- the block kernel's member DFS (members) against its outcome on every
  assignment, where there are at most 10^4 of them;
- the member walk: on up to 3 points, the streamed fact masks against
  every mask that mask_is_member accepts, and count_members against the
  length of the stream; on 4 points, count_members against the length of
  the stream where the count is at most 10^4 and takes at most 10^4 units
  of its budget. Entries on 3 or 4 points have no facts of their own over
  E/2, so their checks ride on the steps of their top two points;
- the containers hypergraph on blocks of 3 of {1..4}, where |S_r(H)|^3
  is at most 10^4: alpha and every block's edges against the type
  assignments on the pairs of {1..3} whose merge (merge_entries) is
  unsatisfiable or not a member (is_member), and the largest co-degrees
  against the materialized oracle of tests/test_containers_oracle.py;
- the extremal search: on 2 points, where every nonempty subset of
  S_r(H) is an H-random choice set, ex = |S_r(H)| with the whole space as
  the one maximizer, on every draw with a realized type (4 to 64 of them);
  and where |S_r(H)| is at most 9, the density sequence to n = 4, whose
  ex(n) counts distinct members, so it is at most count_members;
- on the four draws with 4 realized types, at n = 3: search_extremal,
  near_extremal_set and stability_probe against a brute force over the
  15^3 complete templates whose choice sets are nonempty subsets of
  S_r(H), H-random by is_h_random_direct, with sub the number of
  satisfiable choice functions (_merges) and gaps from template_diff.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from hereditary.containers import build_hypergraph, max_codegrees
from hereditary.diagrams import LocatedType, merge_entries
from hereditary.distances import template_diff
from hereditary.errors import BudgetExceeded
from hereditary.extremal import (density_sequence, near_extremal_set,
                                 search_extremal, stability_probe)
from hereditary.properties import (INDUCED, NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, _fact_index,
                                   count_members, enumerate_members,
                                   is_member, mask_is_member,
                                   realized_type_space)
from hereditary.qftypes import qftp, type_space
from hereditary.structures import Signature, Structure
from hereditary.templates import (Template, _merges, block_checker,
                                  is_h_random, r_subsets, validate_template)

from helpers import random_structure, seeded
from oracles import is_h_random_direct
from test_containers_oracle import oracle_max_codegrees

SIG = Signature([("E", 2), ("P", 1)])
REDUCTS = [SIG, Signature([("E", 2)]), Signature([("P", 1)])]
SEEDS = range(64)
MAX_ASSIGNMENTS = 10 ** 4


def random_property(rng):
    """1-3 entries, each on 1-4 points over a random reduct, with facts of
    density 0.3 and a random match mode, under a random default mode."""
    entries = []
    for _ in range(rng.randint(1, 3)):
        signature = rng.choice(REDUCTS)
        F = random_structure(signature, rng.randint(1, 4), rng, density=0.3)
        entries.append(ForbiddenEntry(F, rng.choice([INDUCED, NON_INDUCED])))
    return HereditaryProperty(SIG, entries,
                              mode=rng.choice([INDUCED, NON_INDUCED]))


def random_template(H, n, rng):
    """Choice sets read off a random structure M on n points and up to two
    variants of M that keep its loops and P but redraw its other arcs, so
    the types agree on their shared facts; then, on each r-subset with
    probability 0.15, one more type of the whole type space, realized or
    not."""
    M = random_structure(SIG, n, rng, density=rng.choice([0.2, 0.5]))
    loops = {t for t in M.relations["E"] if t[0] == t[1]}
    variants = [M]
    for _ in range(rng.randint(0, 2)):
        V = random_structure(SIG, n, rng, density=0.5)
        arcs = {t for t in V.relations["E"] if t[0] != t[1]}
        variants.append(Structure(SIG, n, {"P": M.relations["P"],
                                           "E": loops | arcs}))
    space = type_space(SIG)
    choices = {}
    for A in r_subsets(n, SIG.r):
        chosen = rng.sample(variants, rng.randint(1, len(variants)))
        types = {qftp(V, A) for V in chosen}
        if rng.random() < 0.15:
            types.add(rng.choice(space))
        choices[A] = types
    return Template(H, n, choices)


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_paths_match_the_direct_definitions(seed):
    rng = seeded(seed)
    H = random_property(rng)
    r = SIG.r
    realized = realized_type_space(H)
    realized_set = set(realized)
    for n in (3, 4):
        for _ in range(16):
            T = random_template(H, n, rng)
            assert is_h_random(T) == is_h_random_direct(T)
            assert validate_template(T)[0] == all(
                realized_set.issuperset(types)
                for types in T.choices.values())
    # members lists the assignments whose outcome is True, on every block
    # size r..k: any types at size r, realized ones only above r
    checker = block_checker(H)
    space = type_space(SIG)
    for size in range(r, max(H.k, r) + 1):
        pool = space if size == r else realized
        count = comb(size, r)
        most = max(m for m in range(1, len(space) + 1)
                   if m ** count <= MAX_ASSIGNMENTS)
        ids = [checker.type_id(p)
               for p in rng.sample(pool, min(most, len(pool)))]
        want = {a for a in itertools.product(ids, repeat=count)
                if checker.outcome(size, a)}
        assert set(checker.members(size, ids)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_member_walk_matches_membership(seed):
    # the property of test_fast_paths_match_the_direct_definitions
    H = random_property(seeded(seed))
    for n in (1, 2, 3):  # at most 2^12 fact masks
        stream = list(enumerate_members(H, n))
        assert count_members(H, n) == len(stream)
        index = _fact_index(SIG, n)
        assert sorted(sum(1 << index[f] for f in M.facts())
                      for M in stream) == [
            mask for mask in range(1 << len(index))
            if mask_is_member(H, n, mask)]
    try:
        count = count_members(H, 4, MAX_ASSIGNMENTS)
    except BudgetExceeded:
        return
    if count <= MAX_ASSIGNMENTS:
        assert count == sum(1 for _ in enumerate_members(H, 4))


@pytest.mark.parametrize("seed", SEEDS)
def test_hypergraph_matches_direct_merges(seed):
    # the property of test_fast_paths_match_the_direct_definitions
    H = random_property(seeded(seed))
    space = realized_type_space(H)
    if len(space) ** 3 > MAX_ASSIGNMENTS:
        return
    k, n = 3, 4
    Hg = build_hypergraph(H, k, n)
    # the assignments on the pairs of {1..3} that are edges, merged directly
    rel = list(itertools.combinations(range(1, k + 1), 2))
    failed = []
    for types in itertools.product(space, repeat=len(rel)):
        merged = merge_entries(map(LocatedType, rel, types))
        if merged is None or not is_member(H, merged):
            failed.append(types)
    assert Hg.alpha == len(failed)
    # every block of {1..n} holds them on its own pairs; a located type is
    # read as (pair, index in space), which hashes fast
    index = {p: i for i, p in enumerate(space)}
    edges = {}
    for block in itertools.combinations(range(1, n + 1), k):
        pairs = list(itertools.combinations(block, 2))
        edges[block] = [frozenset(zip(pairs, map(index.get, types)))
                        for types in failed]
        assert [frozenset((v.support, index[v.qftype]) for v in e)
                for e in Hg.block_edges(block)] == edges[block]
    vertices = [(A, i) for A in itertools.combinations(range(1, n + 1), 2)
                for i in range(len(space))]
    for j in range(1, Hg.s + 1):
        assert {(v.support, index[v.qftype]): d
                for v, d in max_codegrees(Hg, j).items()} == \
            oracle_max_codegrees(vertices, edges, j)


@pytest.mark.parametrize("seed", SEEDS)
def test_search_on_r_points_takes_every_realized_type(seed):
    # the property of test_fast_paths_match_the_direct_definitions
    H = random_property(seeded(seed))
    space = realized_type_space(H)
    if not space:
        return
    rep = search_extremal(H, SIG.r)
    assert (rep.ex, rep.exact, rep.truncated) == (len(space), True, False)
    assert [T.choices for T in rep.extremal_templates] == [
        {(1, 2): frozenset(space)}]


@pytest.mark.parametrize("seed", SEEDS)
def test_density_sequence_is_at_most_the_member_counts(seed):
    # the property of test_fast_paths_match_the_direct_definitions; the
    # choice functions of an H-random template merge to distinct members
    H = random_property(seeded(seed))
    if not 0 < len(realized_type_space(H)) <= 9:
        return
    reports = density_sequence(H, 4)
    assert [rep.n for rep in reports] == [2, 3, 4]
    for rep in reports:
        assert count_members(H, rep.n) >= rep.ex


# the draws with 4 realized types, and their ex(3)
FOUR_TYPES = {25: 64, 29: 1, 42: 64, 44: 64}


@pytest.mark.parametrize("seed", sorted(FOUR_TYPES))
def test_three_point_search_and_probe_match_the_brute_force(seed):
    # the property of test_fast_paths_match_the_direct_definitions
    H = random_property(seeded(seed))
    space = realized_type_space(H)
    assert len(space) == 4
    sets = [frozenset(c) for m in range(1, 5)
            for c in itertools.combinations(space, m)]
    subsets = r_subsets(3, SIG.r)
    every = []  # (sub, fact vectors of the choice sets, template)
    for chosen in itertools.product(sets, repeat=len(subsets)):
        T = Template(H, 3, dict(zip(subsets, chosen)))
        if is_h_random_direct(T):
            every.append((len(_merges(T)), tuple(
                tuple(sorted(p.facts for p in c)) for c in chosen), T))
    every.sort(key=lambda row: (-row[0], row[1]))
    ex = every[0][0]
    assert ex == FOUR_TYPES[seed]

    def near(eps):
        a, b = (1 - eps).numerator, (1 - eps).denominator
        return [(T, value) for value, _, T in every
                if value ** b >= ex ** a]

    maximizers = [T for T, _ in near(Fraction(0))]
    rep = search_extremal(H, 3)
    assert (rep.ex, rep.exact, rep.truncated) == (ex, True, False)
    assert rep.extremal_templates == maximizers
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
        found, report = near_extremal_set(H, 3, eps)
        assert found == near(eps)
        assert (report.ex, report.extremal_templates) == (ex, maximizers)
    rows = [(T, value, Fraction(min(len(template_diff(T, E))
                                    for E in maximizers), len(subsets)))
            for T, value in near(Fraction(1, 2))]
    probe = stability_probe(H, 3, Fraction(1, 2))
    assert not probe.truncated and probe.near_extremal == rows
    assert probe.worst_gap == max(gap for _, _, gap in rows)
