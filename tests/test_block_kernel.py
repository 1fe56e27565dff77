"""The block kernel (templates._BlockChecker) against direct merges.

The kernel memoizes membership per merged true mask and, per block size
and prefix of choice-set ids, the mask of allowed types. The oracles are
`merge_entries` plus `is_member` on every assignment, and
`is_h_random_direct` on whole templates.
"""

import itertools
from math import comb

import pytest

from hereditary.containers import build_hypergraph
from hereditary.diagrams import LocatedType, merge_entries
from hereditary.extremal import search_extremal
from hereditary.instances import colored, digraphs, metric, mixed, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, is_member,
                                   realized_type_space)
from hereditary.qftypes import QfType, atoms, type_from_structure
from hereditary.structures import Structure
from hereditary.templates import (Template, block_checker, block_subsets,
                                  closing_blocks, is_h_random,
                                  is_h_random_direct, r_subsets)

from helpers import seeded


def loop_digraphs():
    """Loops free, T_3 forbidden: pairs through a point share its loop, so
    located types can disagree and merges can fail."""
    return HereditaryProperty(digraphs.SIG, [ForbiddenEntry(
        digraphs.transitive_tournament(3), NON_INDUCED)], mode=NON_INDUCED)


FAMILIES = {
    "metric-r3": lambda: metric.metric_instance(3),
    "metric-r4": lambda: metric.metric_instance(4),
    "digraph-k2": lambda: digraphs.digraph_instance(2),
    "digraph-k3": lambda: digraphs.digraph_instance(3),
    "triples": triples.triples_instance,
    "colored": lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]),
}


def direct(H, size, types):
    """merge_entries plus is_member: None when the types on the relative
    r-subsets of {1..size} disagree, else membership of their merge."""
    rel = itertools.combinations(range(1, size + 1), H.signature.r)
    N = merge_entries([LocatedType(A, p) for A, p in zip(rel, types)],
                      n=size, signature=H.signature)
    return None if N is None else is_member(H, N)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_type_assignment_matches_direct_merge(name):
    H = FAMILIES[name]()
    r = H.signature.r
    space = realized_type_space(H)
    checker = block_checker(H)
    singletons = {p: checker.set_id({p}) for p in space}
    for size in range(r, max(H.k, r) + 1):
        for types in itertools.product(space, repeat=comb(size, r)):
            want = direct(H, size, types)
            ids = tuple(checker.type_id(p) for p in types)
            assert checker.outcome(size, ids) is want
            cids = tuple(singletons[p] for p in types)
            assert checker.block_verdict(size, cids) == (want is not False)


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["loop-digraphs"])
def test_choice_set_verdicts_are_the_and_over_the_product(name):
    H = loop_digraphs() if name == "loop-digraphs" else FAMILIES[name]()
    r = H.signature.r
    space = realized_type_space(H)
    checker = block_checker(H)
    options = [frozenset(c) for m in range(1, min(3, len(space)) + 1)
               for c in itertools.combinations(space, m)]
    rng = seeded(505)
    for size in range(r, max(H.k, r) + 1):
        rel = list(itertools.combinations(range(1, size + 1), r))
        # the block {2, 4, ...}: block_ok relabels it onto {1..size}
        block = tuple(range(2, 2 * size + 1, 2))
        for _ in range(40):
            sets = [rng.choice(options) for _ in rel]
            want = all(direct(H, size, types) is not False
                       for types in itertools.product(*sets))
            cids = tuple(checker.set_id(c) for c in sets)
            assert checker.block_verdict(size, cids) == want
            choice_map = {tuple(block[i - 1] for i in A): c
                          for A, c in zip(rel, sets)}
            assert checker.block_ok(block, choice_map) == want


def test_block_subsets_index_the_colex_subsets():
    for n, r in ((5, 2), (5, 3), (6, 3)):
        subsets = r_subsets(n, r)
        for size in range(r, n + 1):
            blocks = itertools.combinations(range(1, n + 1), size)
            assert block_subsets(n, r, size) == tuple(
                tuple(subsets.index(A) for A in itertools.combinations(B, r))
                for B in blocks)
    # closing_blocks lists every block of r+1..min(k, n) points once, at
    # its colex-last r-subset, with a getter of its other r-subsets' entries
    # in lexicographic order
    for r in (2, 3):
        for n in range(r, 8):
            subsets = r_subsets(n, r)
            cids = [7 * i + 3 for i in range(comb(n, r))]
            for k in range(r, n + 2):
                closing = closing_blocks(n, r, k)
                assert len(closing) == len(subsets)
                seen = []
                for i, blocks in enumerate(closing):
                    for size, get in blocks:
                        idx = tuple((c - 3) // 7 for c in get(cids)) + (i,)
                        B = tuple(sorted(set().union(
                            *(subsets[j] for j in idx))))
                        assert len(B) == size
                        assert idx == tuple(subsets.index(A) for A in
                                            itertools.combinations(B, r))
                        seen.append(B)
                assert sorted(seen) == sorted(
                    B for size in range(r + 1, min(k, n) + 1)
                    for B in itertools.combinations(range(1, n + 1), size))


@pytest.mark.parametrize("make, n, want", [
    (lambda: digraphs.digraph_instance(2), 4, (81, 218, 2995)),
    (triples.triples_instance, 5, (16, 116, 199)),
    (lambda: metric.metric_instance(3), 5, (2304, 611, 3541)),
    (lambda: metric.metric_instance(4), 4, (729, 222, 3004)),
], ids=["digraph-k2", "triples", "metric-r3", "metric-r4"])
def test_search_tree_is_unchanged(make, n, want):
    rep = search_extremal(make(), n)
    assert rep.exact
    assert (rep.ex, rep.stats["nodes"], rep.stats["pruned"]) == want


def test_type_outside_realized_space_is_not_h_random():
    # R1 one way only: no metric member realizes it, and it has no fact on
    # fewer than 2 points, so no error pair rejects the template first.
    H = metric.metric_instance(3)
    one_way = QfType(H.signature, [(name, varmap) == ("R1", (1, 2))
                                   for name, varmap in atoms(H.signature)])
    assert one_way not in realized_type_space(H)
    d1, d2 = metric.distance_type(3, 1), metric.distance_type(3, 2)
    for first in ({one_way}, {one_way, d2}):
        T = Template(H, 3, {(1, 2): first, (1, 3): {d1}, (2, 3): {d1}})
        assert not is_h_random(T)
        assert not is_h_random_direct(T)
        # on r points only the size-r block can reject it
        T = Template(H, 2, {(1, 2): first})
        assert not is_h_random(T)
        assert not is_h_random_direct(T)
    checker = block_checker(H)
    assert checker.types[checker.type_id(one_way)] == one_way
    T = Template(H, 3, {(1, 2): {d1, d2}, (1, 3): {d1}, (2, 3): {d1}})
    assert is_h_random(T) and is_h_random_direct(T)


def test_low_facts_are_flagged_per_choice_set():
    H = loop_digraphs()
    checker = block_checker(H)
    loop = type_from_structure(Structure(digraphs.SIG, 2, {"E": [(1, 1)]}))
    empty = type_from_structure(Structure(digraphs.SIG, 2))
    assert checker.set_low[checker.set_id({loop, empty})]
    assert not checker.set_low[checker.set_id({empty})]
    M = metric.metric_instance(3)
    assert not any(block_checker(M).set_low[block_checker(M).set_id({p})]
                   for p in realized_type_space(M))


@pytest.mark.parametrize("make, k, n", [
    (lambda: digraphs.digraph_instance(2), 3, 4),
    (lambda: metric.metric_instance(3), 4, 4),
    (lambda: metric.metric_instance(4), 3, 5),
    (triples.triples_instance, 4, 5),
    (loop_digraphs, 3, 4),
], ids=["digraph-k2", "metric-r3", "metric-r4", "triples", "loop-digraphs"])
def test_hypergraph_edges_are_the_failed_merges(make, k, n):
    # An edge is a choice on a k-block whose merge fails or is not a member.
    H = make()
    r = H.signature.r
    space = realized_type_space(H)
    rel = list(itertools.combinations(range(1, k + 1), r))
    failed = [types for types in itertools.product(space, repeat=len(rel))
              if direct(H, k, types) is not True]
    Hg = build_hypergraph(H, k, n)
    assert Hg.alpha == len(failed)
    for block in itertools.combinations(range(1, n + 1), k):
        subsets = [tuple(block[i - 1] for i in A) for A in rel]
        assert Hg.block_edges(block) == [
            frozenset(LocatedType(A, p) for A, p in zip(subsets, types))
            for types in failed]


def test_members_across_calls_on_a_ternary_signature():
    # each draw's members at s = r read the allowed entry of {1..3} that
    # the earlier draws filled, which holds their types too
    H = mixed.mixed_instance()
    checker = block_checker(H)
    rng = seeded(2611)
    for _ in range(6):
        types = [mixed.sample_type(rng) for _ in range(5)]
        types += [mixed.q1(), mixed.q2()]
        ids = sorted({checker.type_id(p) for p in types})
        for s in (3, 4):
            want = {a for a in itertools.product(ids, repeat=comb(s, 3))
                    if checker.outcome(s, a)}
            assert set(checker.members(s, ids)) == want
