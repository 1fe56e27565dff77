import itertools

import pytest

from hereditary.errors import InvalidArgument
from hereditary.instances import digraphs, metric, mixed
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, is_member)
from hereditary.qftypes import type_from_structure
from hereditary.structures import Structure
from hereditary.templates import (Template, choice_count, detect_errors,
                                  full_subpatterns, is_error_free,
                                  is_flaw_free, is_full_subpattern,
                                  is_h_random, is_h_random_direct, restrict,
                                  r_subsets, sub_count,
                                  template_from_structure, validate_template)

from helpers import seeded
from oracles import choice_functions, geometric_mean_identity_gap


def _digraph_template(n, sets):
    H = digraphs.digraph_instance(2)
    return Template(H, n, dict(zip(r_subsets(n, 2), sets)))


def test_r_subsets_colex():
    assert r_subsets(4, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


def test_template_normalization_and_validation():
    H = digraphs.digraph_instance(2)
    T = Template(H, 3, {(2, 1): {digraphs.P1}})
    assert T.choice((1, 2)) == frozenset({digraphs.P1})
    assert not T.is_complete()
    with pytest.raises(InvalidArgument):
        Template(H, 1, {})
    with pytest.raises(InvalidArgument):
        Template(H, 3, {(1, 2, 3): {digraphs.P1}})
    # a canonical key is stored as it is, any other is sorted and checked
    A = r_subsets(3, 2)[1]
    assert Template(H, 3, {A: [digraphs.P1]}).choices == {
        (1, 3): frozenset({digraphs.P1})}

    class ListKeyed(object):  # a mapping whose key is a list
        def items(self):
            return [([3, 1], {digraphs.P1})]

    assert Template(H, 3, ListKeyed()).choices == {
        (1, 3): frozenset({digraphs.P1})}
    for bad in [(1, 4), (0, 1), (1,)]:
        with pytest.raises(InvalidArgument):
            Template(H, 3, {bad: {digraphs.P1}})


def test_choice_count_and_functions():
    T = _digraph_template(3, [{digraphs.P1, digraphs.P4}, {digraphs.P2},
                              {digraphs.P3, digraphs.P4}])
    assert choice_count(T) == 4
    chis = list(choice_functions(T))
    assert len(chis) == 4
    assert len({tuple(sorted((A, p.id()) for A, p in chi.items()))
                for chi in chis}) == 4


def test_sub_equals_choice_for_max_arity_signatures():
    # no relation of arity < r: errors cannot occur
    T = _digraph_template(3, [{digraphs.P1, digraphs.P4},
                              {digraphs.P2, digraphs.P3},
                              {digraphs.P4}])
    value, error_free = sub_count(T)
    assert error_free
    assert value == choice_count(T) == 4
    subs = full_subpatterns(T)
    assert len(subs) == 4
    assert len(set(subs)) == 4  # distinct choice functions, distinct structures
    for G in subs:
        assert is_full_subpattern(G, T)


def test_mixed_arity_error_template():
    T = mixed.error_template()
    errors = detect_errors(T)
    assert [e[0] for e in errors] == [(1, 2, 3, 4)]
    assert not is_error_free(T)
    value, error_free = sub_count(T)
    assert not error_free
    assert value == 0 < choice_count(T)


def test_loop_fact_errors_are_detected():
    # Only T_3 is forbidden, so loops are allowed. A loop type on {1,2} and
    # a loop-free type on {1,3} disagree on E(1,1), a fact both pairs share.
    H = HereditaryProperty(digraphs.SIG, [ForbiddenEntry(
        digraphs.transitive_tournament(3), NON_INDUCED)], mode=NON_INDUCED)
    loop = type_from_structure(Structure(digraphs.SIG, 2, {"E": [(1, 1)]}))
    empty = type_from_structure(Structure(digraphs.SIG, 2))
    T = Template(H, 3, {(1, 2): {loop}, (1, 3): {empty}, (2, 3): {empty}})
    assert [e[0] for e in detect_errors(T)] == [(1, 2, 3)]
    assert sub_count(T) == (0, False)
    assert full_subpatterns(T) == []
    assert not is_h_random(T)
    assert not is_h_random_direct(T)
    # the same loop on both pairs through 1 is no error
    T = Template(H, 3, {(1, 2): {loop}, (1, 3): {loop}, (2, 3): {empty}})
    assert detect_errors(T) == []
    assert sub_count(T) == (1, True)
    assert is_h_random(T) and is_h_random_direct(T)


def test_flaw_detection():
    H = digraphs.digraph_instance(2)
    from hereditary.qftypes import type_by_id
    loopy = type_by_id(digraphs.SIG, "t15")  # all facts true, incl. loops
    T = Template(H, 3, {(1, 2): {loopy}, (1, 3): {digraphs.P1},
                        (2, 3): {digraphs.P1}})
    ok, diag = validate_template(T)
    assert not ok and diag[0] == "type outside realized space"
    assert not is_flaw_free(T)
    good = _digraph_template(3, [{digraphs.P1}] * 3)
    assert is_flaw_free(good)


def test_h_random_block_check_matches_direct_oracle():
    rng = seeded(21)
    H = digraphs.digraph_instance(2)
    types = [digraphs.P1, digraphs.P2, digraphs.P3, digraphs.P4]
    options = [frozenset(c) for m in (1, 2, 3, 4)
               for c in itertools.combinations(types, m)]
    for _ in range(150):
        sets = [options[rng.randrange(len(options))] for _ in range(6)]
        T = _digraph_template(4, sets)
        assert is_h_random(T) == is_h_random_direct(T)


def test_h_random_metric_examples():
    # all-{1,2} is H-random for r=3; any set containing 1 and 3 without 2
    # compatibility breaks somewhere
    T = metric.all_low_template(3, 3)
    assert is_h_random(T)
    bad = metric.psi_inverse(3, 3, {(1, 2): frozenset({1, 3}),
                                    (1, 3): frozenset({1}),
                                    (2, 3): frozenset({1})})
    assert not is_h_random(bad)
    assert not is_h_random_direct(bad)


def test_template_from_structure_singleton():
    H = digraphs.digraph_instance(2)
    M = digraphs.transitive_tournament(2)
    from hereditary.structures import Structure
    N = Structure(digraphs.SIG, 3, {"E": [(1, 2), (2, 3), (3, 1)]})
    T = template_from_structure(H, N)
    assert choice_count(T) == 1
    assert full_subpatterns(T) == [N]
    with pytest.raises(InvalidArgument):
        template_from_structure(H, digraphs.transitive_tournament(3))
    del M


def test_restriction_preserves_h_randomness():
    T = metric.all_low_template(3, 4)
    assert is_h_random(T)
    for A in itertools.combinations(range(1, 5), 3):
        S = restrict(T, A)
        assert S.is_complete()
        assert is_h_random(S)


def test_geometric_mean_identity():
    T = metric.all_low_template(3, 4)
    assert geometric_mean_identity_gap(T) < 1e-9
    H = digraphs.digraph_instance(2)
    T2 = _digraph_template(4, [{digraphs.P1, digraphs.P4}] * 6)
    assert geometric_mean_identity_gap(T2) < 1e-9


def test_full_subpatterns_are_members_for_h_random():
    T = metric.all_low_template(3, 3)
    for G in full_subpatterns(T):
        assert is_member(T.property, G)
