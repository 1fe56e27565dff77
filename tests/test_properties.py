import itertools
import time

import pytest

from hereditary import properties
from hereditary.errors import BudgetExceeded, InvalidArgument
from hereditary.instances import digraphs, metric, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, closure, count_members,
                                   enumerate_members, is_member,
                                   is_trivial_up_to, realized_type_space)
from hereditary.structures import (Signature, Structure,
                                   induced_substructure, is_isomorphic)

from helpers import DIGRAPH_SIG


def test_membership_examples():
    Hd = digraphs.digraph_instance(2)
    cycle = Structure(DIGRAPH_SIG, 3, {"E": [(1, 2), (2, 3), (3, 1)]})
    assert is_member(Hd, cycle)
    assert not is_member(Hd, digraphs.transitive_tournament(3))
    # too small to embed anything forbidden
    assert is_member(Hd, Structure(DIGRAPH_SIG, 1))
    Hm = metric.metric_instance(3)
    bad = metric.metric_space(3, 3, {(1, 2): 1, (1, 3): 1, (2, 3): 3})
    assert not is_member(Hm, bad)
    good = metric.metric_space(3, 3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert is_member(Hm, good)


def test_signature_mismatch():
    Hd = digraphs.digraph_instance(2)
    with pytest.raises(InvalidArgument):
        is_member(Hd, Structure(triples.SIG, 3))


def test_enumeration_counts():
    Hm = metric.metric_instance(3)
    assert count_members(Hm, 2) == 3
    # 27 distance triples minus the 3 labelings of the violating (1,1,3)
    assert count_members(Hm, 3) == 24


def test_enumeration_is_exact_and_distinct():
    Hd = digraphs.digraph_instance(2)
    members = list(enumerate_members(Hd, 3))
    assert len(set(members)) == len(members)
    for M in members:
        assert is_member(Hd, M)
    # every loop-free digon-free T_3-free labeled digraph appears
    arcs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    expected = 0
    for mask in range(1 << 9):
        chosen = [arcs[i] for i in range(9) if (mask >> i) & 1]
        M = Structure(DIGRAPH_SIG, 3, {"E": chosen})
        if is_member(Hd, M):
            expected += 1
    assert len(members) == expected


def test_heredity():
    for H, n in ((digraphs.digraph_instance(2), 4),
                 (metric.metric_instance(3), 4),
                 (triples.triples_instance(), 4)):
        for M in enumerate_members(H, n):
            for m in range(1, n):
                for A in itertools.combinations(range(1, n + 1), m):
                    assert is_member(H, induced_substructure(M, A))


def test_realized_type_space():
    Hm = metric.metric_instance(3)
    space = realized_type_space(Hm)
    assert len(space) == 3
    assert space == [metric.distance_type(3, i) for i in (3, 2, 1)] or \
        set(space) == {metric.distance_type(3, i) for i in (1, 2, 3)}
    for p in space:
        assert is_member(Hm, p.realizing_structure())
    Hd = digraphs.digraph_instance(2)
    assert set(realized_type_space(Hd)) == {digraphs.P1, digraphs.P2,
                                            digraphs.P3, digraphs.P4}


def test_realized_type_space_is_computed_once(monkeypatch):
    # a fresh property: the instance singletons are shared with other tests
    H = HereditaryProperty(DIGRAPH_SIG, digraphs.digraph_instance(2).forbidden,
                           mode=NON_INDUCED)
    first = realized_type_space(H)
    expected = list(first)

    def enumerate_again(*args, **kwargs):
        raise AssertionError("r-point members enumerated a second time")

    monkeypatch.setattr(properties, "enumerate_members", enumerate_again)
    first.clear()
    assert realized_type_space(H) == expected
    assert realized_type_space(H) is not realized_type_space(H)


def test_closure_digraph():
    Hd = digraphs.digraph_instance(2)
    reps = closure(Hd, 3)
    # every rep is a non-member; reps are pairwise non-isomorphic
    for M in reps:
        assert not is_member(Hd, M)
    for A, B in itertools.combinations(reps, 2):
        assert not is_isomorphic(A, B)
    # closure equivalence: a size-4 structure is F-free iff cl_3-free
    import random
    rng = random.Random(9)
    from helpers import random_structure
    cl = HereditaryProperty(DIGRAPH_SIG, [ForbiddenEntry(M) for M in reps],
                            mode=Hd.mode)
    for _ in range(60):
        M = random_structure(DIGRAPH_SIG, 4, rng)
        assert is_member(Hd, M) == is_member(cl, M)


def test_closure_validation():
    Hd = digraphs.digraph_instance(2)
    with pytest.raises(InvalidArgument):
        closure(Hd, 2)


def test_triviality_report():
    Hd = digraphs.digraph_instance(2)
    assert not is_trivial_up_to(Hd, 4)
    everything = HereditaryProperty(
        DIGRAPH_SIG, [ForbiddenEntry(Structure(DIGRAPH_SIG, 1)),
                      ForbiddenEntry(Structure(DIGRAPH_SIG, 1,
                                               {"E": [(1, 1)]}))])
    assert is_trivial_up_to(everything, 2)


def test_a_checked_step_wider_than_the_budget_raises_at_once():
    # the step of {1,2,3,4} holds the 24 facts R(a,b,c,d) on four distinct
    # points: its 2^24 choices would each be checked before the first is
    # walked
    sig = Signature([("R", 4)])
    H = HereditaryProperty(sig, [ForbiddenEntry(
        Structure(sig, 4, {"R": [(1, 2, 3, 4)]}), NON_INDUCED)])
    start = time.time()
    with pytest.raises(BudgetExceeded):
        next(enumerate_members(H, 4, budget=1000))
    assert time.time() - start < 1
