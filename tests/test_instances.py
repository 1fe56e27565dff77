import itertools
from math import comb

import pytest

from hereditary.errors import InvalidArgument
from hereditary.extremal import search_extremal
from hereditary.instances import colored, digraphs, metric, mixed, triples
from hereditary.instances.colored import all_one_triangle
from hereditary.properties import INDUCED, is_member, universe_entries
from hereditary.structures import Structure, is_isomorphic
from hereditary.templates import (is_h_random, r_subsets, sub_count)

import oracles
from helpers import seeded


# ---------- metric ----------

def test_metric_triangle_predicate():
    assert metric.triangle_ok(1, 2, 3)
    assert not metric.triangle_ok(1, 1, 3)
    assert metric.triangle_ok(3, 1, 2)  # symmetric in arguments


def test_metric_psi_round_trip():
    g = {(1, 2): frozenset({1, 2}), (1, 3): frozenset({2}),
         (2, 3): frozenset({2, 3})}
    T = metric.psi_inverse(3, 3, g)
    assert metric.psi(T) == g


def test_metric_oracle_starts_at_three_points():
    # on two points every distance is a member and there is no triangle
    for r in (3, 4):
        assert search_extremal(metric.metric_instance(r), 2).ex == r
        with pytest.raises(InvalidArgument):
            metric.metric_extremal_oracle(r, 2)


def test_metric_oracle_matches_searches():
    for r, n in ((3, 3), (3, 4), (4, 3), (4, 4)):
        value, family = metric.metric_extremal_oracle(r, n)
        assert oracles.restricted_search(r, n)[0] == value
        assert len(family) >= 1
    # even r: unique extremal set-graph; odd r: one per maximum matching
    assert len(metric.extremal_family(4, 4)) == 1
    assert len(metric.extremal_family(3, 4)) == len(metric.maximum_matchings(4)) == 3


def test_metric_extremal_family_is_h_random():
    for r, n in ((3, 3), (3, 4), (4, 3)):
        for g in metric.extremal_family(r, n):
            T = metric.psi_inverse(r, n, g)
            assert is_h_random(T)


def test_metric_multigraph_bound():
    pairs = r_subsets(4, 2)
    # U2 weighting: a=2 everywhere, 3 on a perfect matching
    w = {A: 2 for A in pairs}
    w[(1, 2)] = 3
    w[(3, 4)] = 3
    rep = oracles.check_multigraph_bound(w, 4, 2)
    assert rep["kind"] == "(3,7)" and rep["holds"] and rep["equality_case"]
    assert rep["product"] == rep["bound"] == 144
    flat = oracles.check_multigraph_bound({A: 2 for A in pairs}, 4, 2)
    assert flat["kind"] == "(3,6)" and flat["holds"] and flat["equality_case"]


def test_metric_loops_and_bad_pairs_are_excluded():
    H = metric.metric_instance(3)
    from hereditary.structures import Structure
    loop = Structure(metric.signature(3), 1, {"R1": [(1, 1)]})
    assert not is_member(H, loop)
    asym = Structure(metric.signature(3), 2, {"R1": [(1, 2)]})
    assert not is_member(H, asym)
    two = Structure(metric.signature(3), 2,
                    {"R1": [(1, 2), (2, 1)], "R2": [(1, 2), (2, 1)]})
    assert not is_member(H, two)


# ---------- digraphs ----------

def test_digraph_psi_round_trip():
    arcs = {(1, 2), (3, 2), (2, 3)}
    T = digraphs.psi_inverse(2, 3, arcs)
    assert digraphs.psi(T) == arcs
    assert digraphs.P3 not in set().union(*T.choices.values())


def test_digraph_downward_close_grows_sub():
    H = digraphs.digraph_instance(2)
    from hereditary.templates import Template
    T = Template(H, 3, {A: {digraphs.P3} for A in r_subsets(3, 2)})
    star = digraphs.downward_close(T)
    assert sub_count(star)[0] >= sub_count(T)[0]
    assert all(digraphs.P4 in ch for ch in star.choices.values())


def test_digraph_reduced_search_matches_oracle():
    for n in (3, 4):
        value, winners = oracles.reduced_search(2, n)
        assert value == digraphs.digraph_extremal_oracle(2, n)[0]
        assert set(winners) == set(digraphs.dt_family(2, n))


def test_digraph_turan_numbers():
    assert digraphs.turan_edges(2, 4) == 4
    assert digraphs.turan_edges(2, 5) == 6
    assert digraphs.turan_edges(3, 5) == 8
    assert len(digraphs.balanced_partitions(2, 4)) == 3


def test_digraph_oracle_range():
    with pytest.raises(InvalidArgument):
        digraphs.digraph_extremal_oracle(2, 2)


# ---------- triples ----------

def test_triples_patterns_detected():
    H = triples.triples_instance()
    F4 = triples.hypergraph(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    F5 = triples.hypergraph(5, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])
    assert not is_member(H, F4)
    assert not is_member(H, F5)
    ok = triples.hypergraph(4, [(1, 2, 3), (1, 2, 4)])
    assert is_member(H, ok)


def test_triples_psi_round_trip():
    edges = {(1, 2, 3), (1, 4, 5)}
    T = triples.psi_inverse(5, edges)
    assert triples.psi(T) == edges


def test_triples_oracle():
    assert triples.e_of_n(3) == 1
    assert triples.e_of_n(4) == 2
    assert triples.e_of_n(5) == 4
    assert triples.e_of_n(9) == 27
    for n in (3, 4, 5):
        value, family = triples.triples_extremal_oracle(n)
        assert value == 2 ** triples.e_of_n(n)
        for edges in family:
            assert len(edges) == triples.e_of_n(n)
            assert is_member(triples.triples_instance(),
                             triples.hypergraph(n, edges))


def test_triples_downward_close():
    T = triples.psi_inverse(4, {(1, 2, 3)})
    star = triples.downward_close(T)
    assert all(triples.P2 in ch for ch in star.choices.values())
    assert sub_count(star)[0] >= sub_count(T)[0]


# ---------- colored ----------

def test_colored_instance_and_brute_force():
    spec = [all_one_triangle()]
    H = colored.colored_instance(2, [1, 2], spec)
    for n in (3, 4):
        rep = search_extremal(H, n)
        value, winners = oracles.max_product(2, [1, 2], spec, n)
        assert rep.ex == value
        assert len(winners) >= 1
    assert oracles.max_density_log2(2, [1, 2], spec, 3).denominator == 3


def test_colored_psi_round_trip():
    spec = [all_one_triangle()]
    H = colored.colored_instance(2, [1, 2], spec)
    sc = {(1, 2): frozenset({1, 2}), (1, 3): frozenset({2}),
          (2, 3): frozenset({1})}
    T = colored.psi_inverse(H, 2, [1, 2], 3, sc)
    assert colored.psi(T, 2, [1, 2]) == sc


def test_colored_membership():
    spec = [all_one_triangle()]
    H = colored.colored_instance(2, [1, 2], spec)
    bad = colored.coloring_structure(2, [1, 2], 3,
                                     {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    assert not is_member(H, bad)
    good = colored.coloring_structure(2, [1, 2], 3,
                                      {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert is_member(H, good)


# ---------- mixed ----------

def test_mixed_instance_frees_ternary():
    H = mixed.mixed_instance()
    from hereditary.structures import Structure
    M = Structure(mixed.SIG, 3, {
        "R1": [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)],
        "E": [(1, 2, 3), (1, 1, 2)]})
    assert is_member(H, M)


def test_mixed_sample_type_is_valid(
):
    rng = seeded(31)
    H = mixed.mixed_instance()
    for _ in range(25):
        p = mixed.sample_type(rng)
        assert is_member(H, p.realizing_structure())


# ---------- iso-class dedup of the generated families ----------

def _pairwise_classes(signature, n, facts, good):
    """Structures over every fact subset not in `good`, in mask order,
    keeping the first of each isomorphism class by pairwise is_isomorphic."""
    reps = []
    for mask in range(1 << len(facts)):
        chosen = [facts[i] for i in range(len(facts)) if mask >> i & 1]
        if frozenset(chosen) in good:
            continue
        rels = {}
        for name, t in chosen:
            rels.setdefault(name, []).append(t)
        M = Structure(signature, n, rels)
        if not any(is_isomorphic(M, rep) for rep in reps):
            reps.append(M)
    return reps


def _symmetric_blocks(names, k):
    perms = list(itertools.permutations(range(1, k + 1)))
    facts = [(name, t) for name in names for t in perms]
    good = {frozenset((name, t) for t in perms) for name in names}
    return facts, good


@pytest.mark.parametrize("case", ["metric-r3", "metric-r4", "metric-r5",
                                  "triples", "colored-2", "colored-3"])
def test_generated_families_match_pairwise_dedup(case):
    if case.startswith("metric"):
        r = int(case[-1])
        facts, good = _symmetric_blocks(["R%d" % i for i in range(1, r + 1)], 2)
        sig, n = metric.signature(r), 2
    elif case == "triples":
        facts, _ = _symmetric_blocks(["E"], 3)
        good = {frozenset(), frozenset(facts)}
        sig, n = triples.SIG, 3
    else:
        colors = list(range(1, int(case[-1]) + 1))
        facts, good = _symmetric_blocks(["c%d" % c for c in colors], 2)
        sig, n = colored.signature(2, colors), 2
    # the induced entries: the loop entries lie on fewer than n points
    entries = [f for f in universe_entries(sig, good) if f.structure.n == n]
    assert [f.structure for f in entries] == _pairwise_classes(
        sig, n, facts, good)
    assert all(f.match == INDUCED for f in entries)
