"""Hand-derived values for the reference computations.

Run with `python3 -m pytest bench/test_reference.py`.
"""

import itertools

from reference import (alpha, count_members, ex_closed_form, h_random,
                       realized_type_count)


def test_counts_by_hand():
    # any 3 of the 4 triples on [4] are {123,124,134}: edge sets of size <= 2
    assert count_members("triples", 4) == 1 + 4 + 6
    # 27 distance assignments minus the 3 placements of (1,1,3)
    assert count_members("metric", 3, r=3) == 27 - 3
    # 3 states per pair (no digon on 3 points) minus the 6 transitive triangles
    assert count_members("digraph", 3) == 27 - 6
    assert count_members("digraph", 2) == 4


def test_closed_forms_by_hand():
    assert ex_closed_form("digraph", 3) == 3 ** 2
    assert ex_closed_form("digraph", 4) == 3 ** 4
    assert ex_closed_form("triples", 3) == 2
    assert ex_closed_form("triples", 5) == 2 ** 4
    # odd r=3, m=2, n=3: one matched pair carries {1,2,3}, two carry {2,3}
    assert ex_closed_form("metric", 3, r=3) == 3 * 2 * 2
    # even r=4, m=3: {2,3,4} on every pair
    assert ex_closed_form("metric", 4, r=4) == 3 ** 6


def test_alpha_by_hand():
    # (1,1,3), (1,1,4) in 3 orders each and (1,2,4) in 6
    assert alpha("metric", 3, r=4) == 12
    # 64 assignments of 4 pair types, 21 members on three points
    assert alpha("digraph", 3) == 64 - 21
    assert realized_type_count("metric", r=5) == 5


def _pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def test_h_random_metric():
    high = {A: {2, 3} for A in _pairs(4)}
    assert h_random("metric", 4, high, r=3)
    one_low = high | {(1, 2): {1}}
    assert h_random("metric", 4, one_low, r=3)  # 1,2,3 and 1,3,3 are metric
    assert not h_random("metric", 4, one_low | {(1, 3): {1}}, r=3)  # 1,1,3


def test_h_random_digraph():
    cyclic = {(1, 2): {"fwd"}, (2, 3): {"fwd"}, (1, 3): {"bwd"}}
    assert h_random("digraph", 3, cyclic)
    assert not h_random("digraph", 3, cyclic | {(1, 3): {"fwd"}})
    assert not h_random("digraph", 3, cyclic | {(1, 3): {"bwd", "fwd"}})
    assert not h_random("digraph", 3, cyclic | {(1, 2): {"both"}})


def test_h_random_triples():
    triples = list(itertools.combinations(range(1, 6), 3))
    empty = {A: {"none"} for A in triples}
    two = empty | {(1, 2, 3): {"edge", "none"}, (1, 2, 4): {"edge"}}
    assert h_random("triples", 5, two)
    assert not h_random("triples", 5, two | {(1, 3, 4): {"edge", "none"}})
    assert not h_random("triples", 5, two | {(3, 4, 5): {"edge"}})
