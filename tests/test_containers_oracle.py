"""The containers report against the materialized hypergraph.

The oracle below is the materialized build: every block's edges stored as
frozensets of located types, co-degrees counted over every j-subset of
every edge, degrees and independence found by scanning all the edges. The
pinned reports were recorded from it.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from hereditary import containers
from hereditary.containers import (build_hypergraph, codegree_function,
                                   degree, independence_check, max_codegrees)
from hereditary.diagrams import LocatedType, type_diagram
from hereditary.errors import BudgetExceeded, InvalidArgument
from hereditary.instances import colored, digraphs, metric, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, count_members,
                                   enumerate_members, is_member,
                                   realized_type_space)
from hereditary.templates import block_checker

from helpers import random_structure, seeded


def loop_digraphs():
    """Loops free, T_3 forbidden: pairs through a point share its loop, so
    located types can disagree and merges can fail."""
    return HereditaryProperty(digraphs.SIG, [ForbiddenEntry(
        digraphs.transitive_tournament(3), NON_INDUCED)], mode=NON_INDUCED)


FAMILIES = {
    "digraph-k2": lambda: digraphs.digraph_instance(2),
    "metric-r3": lambda: metric.metric_instance(3),
    "metric-r4": lambda: metric.metric_instance(4),
    "triples": triples.triples_instance,
    "loop-digraphs": loop_digraphs,
}


def materialized(H, k, n):
    """(vertices, {block: edges}, alpha): every edge of every block built as
    a frozenset of located types."""
    r = H.signature.r
    space = realized_type_space(H)
    vertices = [LocatedType(A, p)
                for A in itertools.combinations(range(1, n + 1), r)
                for p in space]
    s = comb(k, r)
    checker = block_checker(H)
    ids = [checker.type_id(p) for p in space]
    rel_edges = [[checker.types[t] for t in combo]
                 for combo in itertools.product(ids, repeat=s)
                 if checker.outcome(k, combo) is not True]
    rel = list(itertools.combinations(range(1, k + 1), r))
    edges_by_block = {}
    for block in itertools.combinations(range(1, n + 1), k):
        rsubs = [tuple(block[i - 1] for i in A) for A in rel]
        edges_by_block[block] = [
            frozenset(LocatedType(A, p) for A, p in zip(rsubs, combo))
            for combo in rel_edges]
    return vertices, edges_by_block, len(rel_edges)


def oracle_degree(edges_by_block, sigma):
    sigma = frozenset(sigma)
    support = set()
    for v in sigma:
        support.update(v.support)
    count = 0
    for block, edges in edges_by_block.items():
        if not support.issubset(block):
            continue
        count += sum(1 for e in edges if sigma.issubset(e))
    return count


def oracle_max_codegrees(vertices, edges_by_block, j):
    degrees = Counter()
    for edges in edges_by_block.values():
        for e in edges:
            degrees.update(itertools.combinations(sorted(e), j))
    out = {v: 0 for v in vertices}
    for sigma, d in degrees.items():
        for v in sigma:
            if d > out[v]:
                out[v] = d
    return out


def oracle_independence(H, edges_by_block, M):
    """Scan every edge; a type outside S_r(H) is no vertex, so M is not a
    member and no edge witnesses it."""
    entries = type_diagram(M).entries
    space = set(realized_type_space(H))
    if any(v.qftype not in space for v in entries):
        return False, None
    for block, edges in edges_by_block.items():
        for edge in edges:
            if edge.issubset(entries):
                return False, edge
    return True, None


# (family, block size k, n): the oracle's report at tau = 1/4, as
# (d, {j: delta_j}, delta). The first three are the benchmark's cases.
PINS = {
    ("metric-r4", 3, 5): ("9", {2: "2/3", 3: "16/9"}, "56/9"),
    ("digraph-k2", 3, 6): ("43", {2: "16/43", 3: "16/43"}, "96/43"),
    ("metric-r3", 4, 4): ("247/3", {2: "500/247", 3: "1072/247",
                                    4: "1728/247", 5: "2304/247",
                                    6: "3072/247"}, "21151744/247"),
    ("digraph-k2", 3, 12): ("215/2", {2: "32/215", 3: "32/215"}, "192/215"),
    ("digraph-k2", 3, 30): ("301", {2: "16/301", 3: "16/301"}, "96/301"),
}


@pytest.mark.parametrize("case", sorted(PINS), ids=str)
def test_report_pins(case):
    name, k, n = case
    Hg = build_hypergraph(FAMILIES[name](), k, n)
    rep = codegree_function(Hg, Fraction(1, 4))
    d, delta_j, delta = PINS[case]
    assert rep.d == Fraction(d)
    assert rep.delta_j == {j: Fraction(v) for j, v in delta_j.items()}
    assert rep.delta == Fraction(delta)


# (family, block size k, largest n): every n from k up to the largest runs.
CASES = [
    ("digraph-k2", 3, 7), ("digraph-k2", 4, 4),
    ("metric-r3", 3, 7), ("metric-r3", 4, 5),
    ("metric-r4", 3, 7), ("metric-r4", 4, 4),
    ("triples", 4, 7),
    ("loop-digraphs", 3, 5),
]
SIZES = [(name, k, n) for name, k, top in CASES for n in range(k, top + 1)]
# n well above k: most vertices sit at several relative positions, and
# j-sets on fewer than k points lie in several blocks
SIZES += [("digraph-k2", 3, 10), ("metric-r4", 3, 9), ("triples", 4, 9),
          ("metric-r3", 4, 7)]


@pytest.mark.parametrize("name, k, n", SIZES,
                         ids=["%s-k%d-n%d" % case for case in SIZES])
def test_codegrees_match_materialized(name, k, n):
    H = FAMILIES[name]()
    Hg = build_hypergraph(H, k, n)
    vertices, edges_by_block, alpha = materialized(H, k, n)
    assert (Hg.vertices, Hg.alpha) == (vertices, alpha)
    assert Hg.num_edges() == sum(map(len, edges_by_block.values()))
    totals = {}
    for j in range(1, Hg.s + 1):
        want = oracle_max_codegrees(vertices, edges_by_block, j)
        assert max_codegrees(Hg, j) == want
        totals[j] = sum(want.values())
    # the report from the oracle's co-degrees, by its defining equations
    tau = Fraction(1, 4)
    d = Fraction(alpha * comb(n, k) * Hg.s, len(vertices))
    delta_j = {j: Fraction(totals[j]) / (tau ** (j - 1) * len(vertices) * d)
               if d else Fraction(0) for j in range(2, Hg.s + 1)}
    delta = 2 ** (comb(Hg.s, 2) - 1) * sum(
        delta_j[j] / 2 ** comb(j - 1, 2) for j in delta_j)
    rep = codegree_function(Hg, tau)
    assert (rep.d, rep.delta_j, rep.delta) == (d, delta_j, delta)


def _sigmas(vertices, edges_by_block, s, rng, count):
    """Vertex sets to take degrees of: j-subsets of edges, and random
    j-sets of vertices (mostly on no common edge)."""
    edges = [e for es in edges_by_block.values() for e in es]
    for _ in range(count):
        j = rng.randrange(1, s + 1)
        if edges and rng.random() < 0.5:
            yield rng.sample(sorted(rng.choice(edges)), j)
        else:
            yield rng.sample(vertices, j)


@pytest.mark.parametrize("name, k, n", [
    ("digraph-k2", 3, 5), ("digraph-k2", 4, 5), ("metric-r3", 4, 5),
    ("metric-r4", 3, 6), ("triples", 4, 6), ("loop-digraphs", 3, 4),
    ("digraph-k2", 3, 10), ("metric-r3", 4, 8), ("triples", 4, 8)],
    ids=["digraph-k2-k3", "digraph-k2-k4", "metric-r3-k4", "metric-r4-k3",
         "triples-k4", "loop-digraphs-k3", "digraph-k2-k3-n10",
         "metric-r3-k4-n8", "triples-k4-n8"])
def test_degrees_match_materialized(name, k, n):
    H = FAMILIES[name]()
    Hg = build_hypergraph(H, k, n)
    vertices, edges_by_block, _ = materialized(H, k, n)
    rng = seeded(811)
    for sigma in _sigmas(vertices, edges_by_block, Hg.s, rng, 300):
        assert degree(Hg, sigma) == oracle_degree(edges_by_block, sigma)


@pytest.mark.parametrize("name, k, n", [
    ("digraph-k2", 3, 5), ("digraph-k2", 4, 4), ("metric-r3", 3, 5),
    ("metric-r3", 4, 4), ("metric-r4", 3, 5), ("triples", 4, 5),
    ("loop-digraphs", 3, 4)],
    ids=["digraph-k2-k3", "digraph-k2-k4", "metric-r3-k3", "metric-r3-k4",
         "metric-r4-k3", "triples-k4", "loop-digraphs-k3"])
def test_edges_and_witnesses_match_materialized(name, k, n):
    H = FAMILIES[name]()
    Hg = build_hypergraph(H, k, n)
    _, edges_by_block, _ = materialized(H, k, n)
    for block, edges in edges_by_block.items():
        assert Hg.block_edges(block) == edges
    for block in (tuple(range(k, 0, -1)), tuple(range(n - k + 2, n + 2))):
        with pytest.raises(InvalidArgument):
            Hg.block_edges(block)  # not increasing; a point above n
    rng = seeded(812)
    structures = list(itertools.islice(enumerate_members(H, n), 40))
    structures += [random_structure(H.signature, n, rng, density)
                   for density in (0.1, 0.3, 0.5) for _ in range(20)]
    for M in structures:
        ok, edge = independence_check(Hg, M)
        assert (ok, edge) == oracle_independence(H, edges_by_block, M)
        assert ok == is_member(H, M)


def test_edge_budget_is_unchanged(monkeypatch):
    H = digraphs.digraph_instance(2)
    with pytest.raises(BudgetExceeded):
        build_hypergraph(H, 3, 100)
    # 4^3 type assignments per block: C(n, 3) * 64 against the budget
    monkeypatch.setattr(containers, "DEFAULT_EDGE_BUDGET", 64 * comb(10, 3))
    assert build_hypergraph(H, 3, 10).alpha == 43
    monkeypatch.setattr(containers, "DEFAULT_EDGE_BUDGET", 64 * comb(10, 3) - 1)
    with pytest.raises(BudgetExceeded):
        build_hypergraph(H, 3, 10)


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["colored"])
def test_members_count_the_members_on_k_points(name):
    # a structure on k >= r points is fixed by the types on its r-subsets,
    # so the member assignments over S_r(H) are the labeled members
    H = (colored.colored_instance(2, [1, 2], [colored.all_one_triangle()])
         if name == "colored" else FAMILIES[name]())
    r = H.signature.r
    checker = block_checker(H)
    ids = [checker.type_id(p) for p in realized_type_space(H)]
    for k in range(r, 6):
        want = count_members(H, k)
        if want <= 3 * 10 ** 4:
            assert len(checker.members(k, ids)) == want
