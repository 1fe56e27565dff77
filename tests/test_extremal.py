import itertools
import math
from fractions import Fraction

import pytest

from hereditary.errors import InvalidArgument
from hereditary.extremal import (candidate_sets, density_sequence,
                                 e_delta_membership, e_membership,
                                 near_extremal_set, pow_geq, search_extremal,
                                 stability_probe)
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty)
from hereditary.structures import Structure
from hereditary.templates import Template, is_h_random, r_subsets, sub_count


def test_pow_geq_exact_ties():
    assert pow_geq(4, 3, 8, 2)           # 64 = 64
    assert pow_geq(2, 10, 2, 10)
    assert not pow_geq(2, 10, 2, 11)
    assert pow_geq(3, 100, 2, 158)       # close call decided exactly


def test_digraph_extremal_values():
    H = digraphs.digraph_instance(2)
    rep3 = search_extremal(H, 3)
    assert (rep3.ex, rep3.exact) == (9, True)
    rep4 = search_extremal(H, 4)
    assert (rep4.ex, rep4.exact) == (81, True)
    # maximizer images are exactly DT_2(n)
    for rep, n in ((rep3, 3), (rep4, 4)):
        images = {frozenset(digraphs.psi(T)) for T in rep.extremal_templates}
        assert images == set(digraphs.dt_family(2, n))


def test_metric_r3_extremal_values():
    H = metric.metric_instance(3)
    for n, expected, count in ((3, 12, 3), (4, 144, 3)):
        rep = search_extremal(H, n)
        assert rep.ex == expected and rep.exact
        assert len(rep.extremal_templates) == count
        images = [metric.psi(T) for T in rep.extremal_templates]
        oracle_images = metric.extremal_family(3, n)
        assert sorted(map(sorted, (im.items() for im in images))) == \
            sorted(map(sorted, (im.items() for im in oracle_images)))


def test_triples_extremal_values():
    H = triples.triples_instance()
    for n, expected in ((3, 2), (4, 4), (5, 16)):
        rep = search_extremal(H, n)
        assert rep.ex == expected and rep.exact
        images = {frozenset(triples.psi(T)) for T in rep.extremal_templates}
        assert images == set(triples.tripartite_family(n))


def test_search_prunes_loop_fact_errors():
    # Arcs are forbidden and loops are free, so S_2(H) is the four loop
    # patterns. Two pairs through a point must agree on its loop, so only
    # single structures are error-free: ex(3) = 1.
    arc = Structure(digraphs.SIG, 2, {"E": [(1, 2)]})
    H = HereditaryProperty(digraphs.SIG, [ForbiddenEntry(arc, NON_INDUCED)],
                           mode=NON_INDUCED)
    subsets = r_subsets(3, 2)
    templates = [Template(H, 3, dict(zip(subsets, sets)))
                 for sets in itertools.product(candidate_sets(H), repeat=3)]
    assert max(sub_count(T)[0] for T in templates if is_h_random(T)) == 1
    rep = search_extremal(H, 3)
    assert (rep.ex, rep.exact) == (1, True)


def test_density_sequence_monotone():
    for H, nmax in ((digraphs.digraph_instance(2), 4),
                    (metric.metric_instance(3), 4),
                    (triples.triples_instance(), 5)):
        reps = density_sequence(H, nmax)
        values = [rep.b_n for rep in reps]
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-12
        assert all(v >= 1 for v in values)


def test_near_extremal_threshold_is_exact():
    H = metric.metric_instance(3)
    found, report = near_extremal_set(H, 4, Fraction(17, 100))
    assert report.ex == 144
    values = [v for _, v in found]
    # threshold 144^0.83: 62 qualifies (62^100 >= 144^83), 61 does not
    assert all(v ** 100 >= 144 ** 83 for v in values)
    assert min(values) >= 62
    # the all-{1,2} template qualifies with sub = 64
    T = metric.all_low_template(3, 4)
    assert sub_count(T)[0] == 64
    assert any(U == T for U, _ in found)


def test_stability_dichotomy():
    probe = stability_probe(metric.metric_instance(4), 4, Fraction(5, 100))
    assert probe.worst_gap == 0
    probe = stability_probe(metric.metric_instance(3), 4, Fraction(17, 100))
    assert probe.worst_gap == 1
    # the all-low template attains the worst gap
    T = metric.all_low_template(3, 4)
    gaps = {U.canonical_key(): gap for U, _, gap in probe.near_extremal}
    assert gaps[T.canonical_key()] == 1


def test_e_membership_and_transfer():
    H = metric.metric_instance(3)
    rep = search_extremal(H, 3)
    member = metric.metric_space(3, 3, {(1, 2): 2, (1, 3): 2, (2, 3): 2})
    assert e_membership(member, rep.extremal_templates)
    far = metric.metric_space(3, 3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    assert e_delta_membership(far, rep.extremal_templates, 1)


def test_invalid_inputs():
    H = digraphs.digraph_instance(2)
    with pytest.raises(InvalidArgument):
        search_extremal(H, 1)
    with pytest.raises(InvalidArgument):
        near_extremal_set(H, 3, Fraction(3, 2))


def test_exact_pair_matches_float():
    rep = search_extremal(digraphs.digraph_instance(2), 3)
    ex, denom = rep.exact_pair()
    assert math.isclose(rep.b_n, ex ** (1.0 / denom))
