"""Search trees, maximizers and stability rows pinned to recorded values.

The maximizers and near-extremal rows were recorded from the search
before its block kernel worked on bit masks, and the trees (nodes,
prunes) from the search that visits only lex-least templates under the
point transpositions and expands only the orbits at its final floor back
into their labeled templates; any change to the tree, the maximizers or
the near-extremal rows shows here. Templates are written with their types
named by position in realized_type_space, and long lists are pinned by a
digest of their repr.
"""

import hashlib
from fractions import Fraction

import pytest

from hereditary import extremal
from hereditary.distances import template_dist
from hereditary.extremal import search_extremal, stability_probe
from hereditary.instances import digraphs, metric, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, realized_type_space)
from hereditary.structures import Structure
from hereditary.templates import sub_count

ARC = Structure(digraphs.SIG, 2, {"E": [(1, 2)]})


def loop_arcs():
    """Arcs forbidden, loops free (as in test_search_prunes_loop_fact_errors):
    every pair through a point must agree on its loop."""
    return HereditaryProperty(digraphs.SIG, [ForbiddenEntry(ARC, NON_INDUCED)],
                              mode=NON_INDUCED)


def loop_triangles():
    """Arcs forbidden and no three looped points: errors and 3-blocks."""
    loops = Structure(digraphs.SIG, 3, {"E": [(1, 1), (2, 2), (3, 3)]})
    return HereditaryProperty(
        digraphs.SIG, [ForbiddenEntry(ARC, NON_INDUCED),
                       ForbiddenEntry(loops, NON_INDUCED)], mode=NON_INDUCED)


def named(T):
    """T's choice sets as tuples of positions in realized_type_space."""
    space = realized_type_space(T.property)
    return tuple(tuple(space.index(p) for p in sorted(T.choices[A]))
                 for A in T.subsets)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


DIGRAPH_N5_MAXIMIZERS = [
    ((0,), (0,), (0,), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2),
     (0, 1, 2), (0,)),
    ((0,), (0, 1, 2), (0, 1, 2), (0,), (0,), (0, 1, 2), (0, 1, 2), (0, 1, 2),
     (0,), (0, 1, 2)),
    ((0,), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0,), (0,), (0,),
     (0, 1, 2), (0, 1, 2)),
    ((0,), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0,), (0, 1, 2),
     (0, 1, 2), (0,), (0,)),
    ((0, 1, 2), (0,), (0, 1, 2), (0,), (0, 1, 2), (0,), (0, 1, 2), (0,),
     (0, 1, 2), (0, 1, 2)),
    ((0, 1, 2), (0,), (0, 1, 2), (0, 1, 2), (0,), (0, 1, 2), (0,), (0, 1, 2),
     (0,), (0, 1, 2)),
    ((0, 1, 2), (0,), (0, 1, 2), (0, 1, 2), (0,), (0, 1, 2), (0, 1, 2), (0,),
     (0, 1, 2), (0,)),
    ((0, 1, 2), (0, 1, 2), (0,), (0,), (0, 1, 2), (0, 1, 2), (0,), (0, 1, 2),
     (0, 1, 2), (0,)),
    ((0, 1, 2), (0, 1, 2), (0,), (0,), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0,),
     (0,), (0, 1, 2)),
    ((0, 1, 2), (0, 1, 2), (0,), (0, 1, 2), (0,), (0,), (0,), (0, 1, 2),
     (0, 1, 2), (0, 1, 2)),
]

LOOP_ARCS_N3_MAXIMIZERS = [
    ((0,), (0,), (0,)), ((0,), (1,), (1,)), ((1,), (0,), (2,)),
    ((1,), (1,), (3,)), ((2,), (2,), (0,)), ((2,), (3,), (1,)),
    ((3,), (2,), (2,)), ((3,), (3,), (3,)),
]


def test_digraph_n5_tree_and_maximizers():
    rep = search_extremal(digraphs.digraph_instance(2), 5)
    assert rep.exact and not rep.truncated
    assert (rep.ex, rep.stats["nodes"], rep.stats["pruned"]) == (
        729, 3071, 42824)
    assert [named(T) for T in rep.extremal_templates] == DIGRAPH_N5_MAXIMIZERS
    assert digest(DIGRAPH_N5_MAXIMIZERS) == "32b198182ce9f04f"


@pytest.mark.parametrize("make, n, want, count, keys", [
    (lambda: metric.metric_instance(3), 6, (110592, 6743, 40305), 15,
     "836ffdf1e392b4e7"),
    (loop_arcs, 3, (1, 27, 263), 8, "fad2926d2a0c36f4"),
    (loop_triangles, 3, (1, 26, 264), 7, "7885bcc949969a75"),
    (loop_triangles, 4, (1, 41, 418), 11, "1d76bb11e187d529"),
    (loop_triangles, 5, (1, 61, 628), 16, "4247fdc79f6af0db"),
], ids=["metric-r3-n6", "loop-arcs-n3", "loop-triangles-n3",
        "loop-triangles-n4", "loop-triangles-n5"])
def test_search_tree_and_maximizers_are_pinned(make, n, want, count, keys):
    rep = search_extremal(make(), n)
    assert rep.exact and not rep.truncated
    assert (rep.ex, rep.stats["nodes"], rep.stats["pruned"]) == want
    found = [named(T) for T in rep.extremal_templates]
    assert len(found) == count
    assert digest(found) == keys


def test_loop_arcs_maximizers_are_the_single_structures():
    rep = search_extremal(loop_arcs(), 3)
    assert [named(T) for T in rep.extremal_templates] == LOOP_ARCS_N3_MAXIMIZERS


PROBES = [
    (lambda: metric.metric_instance(3), 5, Fraction(1, 10), 590,
     Fraction(2, 5), {0, Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                      Fraction(2, 5)},
     {1152, 1296, 1536, 1728, 2304}, "b7cab77598e84503"),
    (lambda: metric.metric_instance(4), 4, Fraction(5, 100), 1, 0, {0},
     {729}, "12ba21a41b7a8100"),
    (lambda: digraphs.digraph_instance(2), 4, Fraction(1, 4), 253,
     Fraction(5, 6), {0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                      Fraction(5, 6)},
     {27, 32, 36, 54, 81}, "5d304957ac4aeb1e"),
    (triples.triples_instance, 5, Fraction(1, 4), 145, Fraction(3, 10),
     {0, Fraction(1, 10), Fraction(3, 10)}, {8, 16}, "dcb2f462d6656f53"),
    (loop_triangles, 4, Fraction(1, 2), 11, 0, {0}, {1}, "564d7c3c8c8f4ff3"),
]


@pytest.mark.parametrize("make, n, eps, count, worst, gaps, subs, rows",
                         PROBES, ids=["metric-r3-n5", "metric-r4-n4",
                                      "digraph-k2-n4", "triples-n5",
                                      "loop-triangles-n4"])
def test_stability_rows_are_pinned(make, n, eps, count, worst, gaps, subs,
                                   rows):
    probe = stability_probe(make(), n, eps)
    found = [(named(T), v, g) for T, v, g in probe.near_extremal]
    assert len(found) == count
    assert probe.worst_gap == worst
    assert {g for _, _, g in found} == gaps
    assert {v for _, v, _ in found} == subs
    assert digest(found) == rows


@pytest.mark.parametrize("make, n, eps, cap, worst, rows", [
    (lambda: metric.metric_instance(3), 5, Fraction(1, 10), 50,
     Fraction(1, 5), "92c8b3ce96130109"),
    (lambda: metric.metric_instance(3), 5, Fraction(1, 10), 3, 0,
     "b6776d046adff17c"),
    (lambda: metric.metric_instance(4), 5, Fraction(1, 10), 50,
     Fraction(1, 5), "c0168e752d5dc56d"),
    (lambda: digraphs.digraph_instance(2), 4, Fraction(1, 4), 50,
     Fraction(1, 3), "cc688d1b4e50555d"),
    # here the cap drops a leaf while more than one orbit holds the least
    # kept sub: the last leaf kept goes
    (lambda: metric.metric_instance(3), 3, Fraction(1, 2), 50, 1,
     "f75a5558d6d8a304"),
    (lambda: digraphs.digraph_instance(3), 4, Fraction(1, 10), 50,
     Fraction(1, 2), "3544f199b0ddaf53"),
], ids=["metric-r3-n5-cap50", "metric-r3-n5-cap3", "metric-r4-n5-cap50",
        "digraph-k2-n4-cap50", "metric-r3-n3-cap50", "digraph-k3-n4-cap50"])
def test_capped_stability_rows_are_pinned(monkeypatch, make, n, eps, cap,
                                          worst, rows):
    # which rows tied at the least kept sub survive the cap depends on the
    # order in which the labeled leaves reach it; recorded from the search
    # that expanded every orbit as soon as it was met
    monkeypatch.setattr(extremal, "DEFAULT_CAP", cap)
    probe = stability_probe(make(), n, eps)
    found = [(named(T), v, g) for T, v, g in probe.near_extremal]
    assert probe.truncated and len(found) == cap
    assert probe.worst_gap == worst
    assert digest(found) == rows


@pytest.mark.parametrize("make, n, eps", [
    (lambda: metric.metric_instance(3), 5, Fraction(1, 10)),
    (lambda: digraphs.digraph_instance(2), 4, Fraction(1, 4)),
    (triples.triples_instance, 5, Fraction(1, 4)),
], ids=["metric-r3-n5", "digraph-k2-n4", "triples-n5"])
def test_stability_gaps_equal_min_template_dist(make, n, eps):
    H = make()
    probe = stability_probe(H, n, eps)
    extremal = search_extremal(H, n).extremal_templates
    assert probe.near_extremal
    for T, _, gap in probe.near_extremal:
        assert gap == min(template_dist(T, E) for E in extremal)



# The search reports each leaf's product as its sub: every leaf it collects,
# with or without low facts among the types, is error-free.
@pytest.mark.parametrize("make, n", [
    (lambda: digraphs.digraph_instance(2), 5),
    (lambda: metric.metric_instance(3), 6),
    (loop_arcs, 3),
    (loop_triangles, 3),
    (loop_triangles, 4),
    (loop_triangles, 5),
], ids=["digraph-k2-n5", "metric-r3-n6", "loop-arcs-n3", "loop-triangles-n3",
        "loop-triangles-n4", "loop-triangles-n5"])
def test_maximizers_are_error_free(make, n):
    rep = search_extremal(make(), n)
    assert rep.extremal_templates
    for T in rep.extremal_templates:
        assert sub_count(T) == (rep.ex, True)


@pytest.mark.parametrize("make, n, eps", [probe[:3] for probe in PROBES],
                         ids=["metric-r3-n5", "metric-r4-n4", "digraph-k2-n4",
                              "triples-n5", "loop-triangles-n4"])
def test_near_extremal_rows_are_error_free(make, n, eps):
    rows = stability_probe(make(), n, eps).near_extremal
    assert rows
    for T, value, _ in rows:
        assert sub_count(T) == (value, True)
