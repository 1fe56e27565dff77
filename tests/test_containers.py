import itertools
from fractions import Fraction
from math import comb

import pytest

from hereditary import containers
from hereditary.containers import (build_hypergraph,
                                   build_template_from_diagram_set,
                                   codegree_function, degree, exponent_m,
                                   independence_check, max_codegrees,
                                   suggested_tau)
from hereditary.diagrams import LocatedType, type_diagram
from hereditary.errors import InvalidArgument
from hereditary.instances import digraphs, metric, triples
from hereditary.properties import enumerate_members, is_member
from hereditary.structures import Structure
from hereditary.templates import is_h_random


def test_digraph_hypergraph_shape():
    H = digraphs.digraph_instance(2)
    for n in (4, 5):
        Hg = build_hypergraph(H, 3, n)
        assert Hg.num_vertices() == 4 * comb(n, 2)
        assert Hg.s == 3
        assert Hg.num_edges() == Hg.alpha * comb(n, 3)
        assert Hg.alpha == 43


def test_members_give_independent_sets():
    H = digraphs.digraph_instance(2)
    Hg = build_hypergraph(H, 3, 4)
    for M in enumerate_members(H, 4):
        ok, edge = independence_check(Hg, M)
        assert ok and edge is None
    # a non-member is caught by some edge
    bad = digraphs.transitive_tournament(4)
    ok, edge = independence_check(Hg, bad)
    assert not ok and edge is not None


def test_independence_check_rejects_other_signatures():
    Hg = build_hypergraph(digraphs.digraph_instance(2), 3, 4)
    M = next(iter(enumerate_members(metric.metric_instance(3), 4)))
    with pytest.raises(InvalidArgument):
        independence_check(Hg, M)


def test_independence_check_on_a_type_outside_the_space():
    # a loop is in no realized type: M is not a member, and no edge (a set
    # of vertices) lies inside its type-diagram
    H = digraphs.digraph_instance(2)
    Hg = build_hypergraph(H, 3, 4)
    M = Structure(digraphs.SIG, 4, {"E": [(1, 1)]})
    assert not is_member(H, M)
    assert independence_check(Hg, M) == (False, None)


def test_max_codegrees_rejects_negative_j():
    Hg = build_hypergraph(digraphs.digraph_instance(2), 3, 4)
    with pytest.raises(InvalidArgument):
        max_codegrees(Hg, -1)


def test_counting_builds_no_vertex_list(monkeypatch):
    # the report reads only the number of vertices; the list is built on
    # first read
    built = []

    def counted(A, p):
        built.append(A)
        return LocatedType(A, p)

    monkeypatch.setattr(containers, "LocatedType", counted)
    Hg = build_hypergraph(digraphs.digraph_instance(2), 3, 98)
    assert codegree_function(Hg, Fraction(1, 4)).delta == Fraction(4, 43)
    assert built == []
    assert Hg.num_vertices() == 4 * comb(98, 2)
    assert len(Hg.vertices) == len(built) == Hg.num_vertices()


def test_degree_off_the_points_is_zero():
    # no k-block holds a point outside {1..n}
    H = digraphs.digraph_instance(2)
    Hg = build_hypergraph(H, 3, 6)
    p = Hg.space[0]
    assert degree(Hg, [LocatedType((1, 2), p)]) > 0
    for A in [(0, 1), (5, 7), (-3, 2)]:
        assert degree(Hg, [LocatedType(A, p)]) == 0


def test_degree_identity():
    H = digraphs.digraph_instance(2)
    Hg = build_hypergraph(H, 3, 4)
    # sum of vertex degrees = s * |E|
    total = sum(degree(Hg, (v,)) for v in Hg.vertices)
    assert total == Hg.s * Hg.num_edges()
    assert Hg.average_degree() == Fraction(total, Hg.num_vertices())


def test_codegree_report():
    H = digraphs.digraph_instance(2)
    Hg = build_hypergraph(H, 3, 4)
    tau = Fraction(1, 4)
    rep = codegree_function(Hg, tau, epsilon=Fraction(1, 10))
    # delta_j match the defining equation directly
    for j in (2, 3):
        total = sum(max_codegrees(Hg, j).values())
        assert rep.delta_j[j] * tau ** (j - 1) * Hg.num_vertices() * rep.d == total
    assert rep.delta > 0
    assert rep.threshold is not None
    with pytest.raises(InvalidArgument):
        codegree_function(Hg, Fraction(2, 3))


@pytest.mark.parametrize("make, k, n", [
    (lambda: digraphs.digraph_instance(2), 3, 4),
    (lambda: metric.metric_instance(3), 4, 4)], ids=["digraph-k2", "metric-r3"])
def test_max_codegrees_match_degree_definition(make, k, n):
    Hg = build_hypergraph(make(), k, n)
    for j in range(1, Hg.s + 1):
        # j-sets inside no edge have degree 0
        inside = {sigma for block in itertools.combinations(
                      range(1, Hg.n + 1), Hg.k) for e in Hg.block_edges(block)
                  for sigma in itertools.combinations(sorted(e), j)}
        want = {v: 0 for v in Hg.vertices}
        for sigma in inside:
            d = degree(Hg, sigma)
            for v in sigma:
                want[v] = max(want[v], d)
        assert max_codegrees(Hg, j) == want


def test_edgeless_case_gives_zero_delta():
    # triples at k=r=3: every realized type-diagram is a member, no edges
    H = triples.triples_instance()
    Hg = build_hypergraph(H, 3, 4)
    assert Hg.num_edges() == 0 and Hg.alpha == 0
    rep = codegree_function(Hg, Fraction(1, 4))
    assert rep.delta == 0


def test_exponent_m_values():
    assert exponent_m(3, 2) == 2
    assert exponent_m(4, 2) == Fraction(5, 2)
    for r in range(2, 8):
        for k in range(r + 1, 9):
            assert exponent_m(k, r) > 1
    with pytest.raises(InvalidArgument):
        exponent_m(2, 2)
    assert suggested_tau(100, 3, 2, 0.5) > 0


def test_template_from_diagram_set():
    H = digraphs.digraph_instance(2)
    M = next(iter(enumerate_members(H, 3)))
    entries = type_diagram(M).entries
    T = build_template_from_diagram_set(H, 3, entries)
    assert T.is_complete()
    assert is_h_random(T) == is_member(H, M)
    with pytest.raises(InvalidArgument):
        build_template_from_diagram_set(H, 3, list(entries)[:1])
