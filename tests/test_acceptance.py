"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion. All comparisons are exact unless stated otherwise."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from hereditary.containers import (build_hypergraph, codegree_function,
                                   exponent_m, independence_check)
from hereditary.distances import distance_bound_check
from hereditary.extremal import (density_sequence, pow_geq, search_extremal,
                                 stability_probe)
from hereditary.instances import colored, digraphs, metric, mixed, triples
from hereditary.instances.colored import all_one_triangle
from hereditary.properties import count_members, enumerate_members
from hereditary.templates import (Template, choice_count, is_error_free,
                                  is_h_random, is_h_random_direct, r_subsets,
                                  sub_count)

import oracles
from helpers import random_structure, seeded

COLORED_SPEC = [all_one_triangle()]


def _colored_instance():
    return colored.colored_instance(2, [1, 2], COLORED_SPEC)


def test_criterion_01_metric_even_r4():
    start = time.time()
    rep = search_extremal(metric.metric_instance(4), 3)
    assert rep.ex == 27 and rep.exact
    assert len(rep.extremal_templates) == 1
    image = metric.psi(rep.extremal_templates[0])
    assert all(c == frozenset({2, 3, 4}) for c in image.values())
    assert time.time() - start < 60
    # n = 4, both paths
    rep4 = search_extremal(metric.metric_instance(4), 4)
    assert rep4.ex == 729 and rep4.exact
    value, winners = oracles.restricted_search(4, 4)
    assert value == 729
    for g in winners:
        weights = {A: len(c) for A, c in g.items()}
        cert = oracles.check_multigraph_bound(weights, 4, 3)
        assert cert["holds"] and cert["product"] <= 729


def test_criterion_02_metric_odd_r3():
    start = time.time()
    H = metric.metric_instance(3)
    for n, expected in ((3, 12), (4, 144)):
        rep = search_extremal(H, n)
        assert rep.ex == expected and rep.exact
        assert len(rep.extremal_templates) == 3
        images = [metric.psi(T) for T in rep.extremal_templates]
        oracle = metric.extremal_family(3, n)
        key = lambda im: tuple(sorted((A, tuple(sorted(c)))
                                      for A, c in im.items()))
        assert sorted(map(key, images)) == sorted(map(key, oracle))
    assert time.time() - start < 600


def test_criterion_03_digraph_k2():
    H = digraphs.digraph_instance(2)
    rep3 = search_extremal(H, 3)
    assert rep3.ex == 9 and rep3.exact
    # n = 4 via the downward-closure reduction, search as cross-check
    value, winners = oracles.reduced_search(2, 4)
    assert value == 81
    rep4 = search_extremal(H, 4)
    assert rep4.ex == 81 and rep4.exact
    for rep, n in ((rep3, 3), (rep4, 4)):
        images = {frozenset(digraphs.psi(T)) for T in rep.extremal_templates}
        assert images == set(digraphs.dt_family(2, n))
    assert set(winners) == set(digraphs.dt_family(2, 4))


def test_criterion_04_triples():
    start = time.time()
    H = triples.triples_instance()
    for n, expected in ((4, 4), (5, 16)):
        rep = search_extremal(H, n)
        assert rep.ex == expected and rep.exact
        images = {frozenset(triples.psi(T)) for T in rep.extremal_templates}
        assert images == set(triples.tripartite_family(n))
    assert time.time() - start < 600


def test_criterion_05_stability_dichotomy():
    probe_even = stability_probe(metric.metric_instance(4), 4, Fraction(5, 100))
    assert probe_even.worst_gap == 0
    probe_odd = stability_probe(metric.metric_instance(3), 4, Fraction(17, 100))
    assert probe_odd.worst_gap == 1
    witness = metric.all_low_template(3, 4)
    attained = [gap for T, _, gap in probe_odd.near_extremal
                if T.canonical_key() == witness.canonical_key()]
    assert attained == [1]


def test_criterion_06_sub_equals_choice_iff_error_free():
    # mixed-arity signature, n = 3: sampled complete templates (the full
    # type space is 2^54, exhaustion is infeasible); zero mismatches.
    rng = seeded(606)
    H = mixed.mixed_instance()
    mismatches = 0
    for _ in range(10 ** 4):
        pool = {mixed.sample_type(rng) for _ in range(rng.randint(1, 3))}
        T = Template(H, 3, {(1, 2, 3): pool})
        merged = set()
        satisfiable = 0
        for chi_types in itertools.product(*[sorted(pool)]):
            from hereditary.diagrams import LocatedType, merge_entries
            N = merge_entries([LocatedType((1, 2, 3), chi_types[0])],
                              n=3, signature=H.signature)
            if N is not None:
                satisfiable += 1
                merged.add(N)
        independent_sub = len(merged)
        value, _ = sub_count(T)
        if (value == choice_count(T)) != is_error_free(T) or \
                value != independent_sub:
            mismatches += 1
    assert mismatches == 0
    # mixed-arity errors genuinely separate the two counts at n = 4
    T = mixed.error_template()
    assert not is_error_free(T)
    assert sub_count(T)[0] < choice_count(T)


def _agreement(H, n, sample, rng_seed):
    from hereditary.extremal import candidate_sets
    cands = candidate_sets(H)
    subsets = r_subsets(n, H.signature.r)
    mismatches = 0
    if sample is None:
        space = itertools.product(cands, repeat=len(subsets))
    else:
        rng = seeded(rng_seed)
        space = ([cands[rng.randrange(len(cands))] for _ in subsets]
                 for _ in range(sample))
    for sets in space:
        T = Template(H, n, dict(zip(subsets, sets)))
        if choice_count(T) > 10 ** 5:
            continue
        if is_h_random(T) != is_h_random_direct(T):
            mismatches += 1
    return mismatches


def test_criterion_07_h_random_equivalence():
    # exhaustive where the template space is enumerable; for the two
    # 15^6-sized spaces, 10^4 templates drawn with fixed seeds, so every
    # run checks the same templates at a bounded cost
    jobs = [
        (metric.metric_instance(3), 3, None),
        (metric.metric_instance(3), 4, None),
        (metric.metric_instance(4), 3, None),
        (digraphs.digraph_instance(2), 3, None),
        (triples.triples_instance(), 3, None),
        (triples.triples_instance(), 4, None),
        (_colored_instance(), 3, None),
        (_colored_instance(), 4, None),
        (metric.metric_instance(4), 4, 10 ** 4),
        (digraphs.digraph_instance(2), 4, 10 ** 4),
    ]
    for i, (H, n, sample) in enumerate(jobs):
        assert _agreement(H, n, sample, 700 + i) == 0, (H.name, n)


def test_criterion_08_distance_bound():
    cases = [(metric.signature(3), 4), (digraphs.SIG, 4),
             (triples.SIG, 6), (colored.signature(2, [1, 2]), 4)]
    for idx, (sig, n) in enumerate(cases):
        rng = seeded(800 + idx)
        assert n >= 2 * sig.r
        for _ in range(500):
            M = random_structure(sig, n, rng, density=rng.random())
            N = random_structure(sig, n, rng, density=rng.random())
            assert distance_bound_check(M, N)["holds"]


def test_criterion_09_density_monotonicity():
    for H, nmax in ((metric.metric_instance(3), 4),
                    (digraphs.digraph_instance(2), 4),
                    (triples.triples_instance(), 5),
                    (_colored_instance(), 4)):
        reps = density_sequence(H, nmax)
        r = H.signature.r
        for a, b in zip(reps, reps[1:]):
            assert pow_geq(a.ex, comb(b.n, r), b.ex, comb(a.n, r))
        for rep in reps:
            assert rep.ex >= 1  # b_n >= 1


def test_criterion_10_containers_identities():
    H = digraphs.digraph_instance(2)
    for n in (4, 5):
        Hg = build_hypergraph(H, 3, n)
        assert Hg.num_vertices() == 4 * comb(n, 2)
        assert Hg.num_edges() == Hg.alpha * comb(n, 3)
    Hg4 = build_hypergraph(H, 3, 4)
    for M in enumerate_members(H, 4):
        assert independence_check(Hg4, M)[0]
    # edgeless hypergraph: delta = 0
    Hg0 = build_hypergraph(triples.triples_instance(), 3, 4)
    assert Hg0.num_edges() == 0
    assert codegree_function(Hg0, Fraction(1, 4)).delta == 0
    for r in range(2, 8):
        for k in range(r + 1, 9):
            assert exponent_m(k, r) > 1


def test_criterion_11_colored_consistency():
    H = _colored_instance()
    for n in (3, 4):
        rep = search_extremal(H, n)
        value, _ = oracles.max_product(2, [1, 2], COLORED_SPEC, n)
        assert rep.ex == value and rep.exact
        # the brute-force value is 2^(max(n,P) * C(n,2))
        exponent = oracles.max_density_log2(2, [1, 2], COLORED_SPEC, n) * comb(n, 2)
        assert 2 ** exponent == value


def _cancellative_count(n):
    """Labeled cancellative 3-graphs on [n], counted without `hereditary`:
    edge sets with no A, B, C such that |A^B| = 2 and A^B lies in C."""
    all_triples = list(itertools.combinations(range(1, n + 1), 3))
    count = 0
    for size in range(len(all_triples) + 1):
        for edges in itertools.combinations(all_triples, size):
            sets = [frozenset(e) for e in edges]
            if not any(len(A ^ B) == 2 and A ^ B <= C
                       for A, B, C in itertools.product(sets, repeat=3)):
                count += 1
    return count


def test_criterion_12_enumeration_lower_bound():
    pairs = [(metric.metric_instance(3), (2, 3, 4)),
             (metric.metric_instance(4), (2, 3, 4)),
             (digraphs.digraph_instance(2), (2, 3, 4)),
             (triples.triples_instance(), (3, 4, 5)),
             (_colored_instance(), (2, 3, 4))]
    for H, ns in pairs:
        for n in ns:
            assert count_members(H, n) >= search_extremal(H, n).ex
    # |H_4| = 11: any 3 of the 4 triples on [4] form {123,124,134}, so the
    # members are the edge sets of size <= 2 (1 + 4 + 6). 16 = 2^C(4,3) is
    # the count of all 3-graphs on [4], with no constraint at all.
    H = triples.triples_instance()
    assert count_members(H, 4) == 11
    for n in (3, 4, 5):
        assert count_members(H, n) == _cancellative_count(n)
