"""The one-pass near-extremal search against a two-pass reference.

The reference finds ex with search_extremal, then runs a second
_SearchEngine with its floor fixed at the least v with v^b >= ex^a
(1 - epsilon = a/b), expands every leaf's orbit (_orbit), sorts the
templates by (-sub, canonical_key) and measures each gap with
distances.template_diff. The library answers the same question in one
search whose floor follows the best product found so far, and expands
only the orbits at or above its final floor.
"""

from fractions import Fraction
from math import comb

import pytest

from hereditary import extremal
from hereditary.distances import template_diff, template_dist
from hereditary.extremal import near_extremal_set, stability_probe
from hereditary.instances import digraphs, metric

from test_search_pins import PROBES

CASES = [probe[:3] for probe in PROBES] + [
    (lambda: digraphs.digraph_instance(2), 5, Fraction(1, 10)),
    (lambda: metric.metric_instance(3), 6, Fraction(1, 20)),
    (lambda: metric.metric_instance(4), 5, Fraction(1, 10)),
]
IDS = ["metric-r3-n5", "metric-r4-n4", "digraph-k2-n4", "triples-n5",
       "loop-triangles-n4", "digraph-k2-n5", "metric-r3-n6", "metric-r4-n5"]


def least_floor(ex, frac):
    """The least v >= 1 with v^b >= ex^a, from a float guess moved to the
    exact boundary."""
    a, b = frac.numerator, frac.denominator
    target = ex ** a
    v = max(1, round(ex ** float(frac)))
    while v > 1 and (v - 1) ** b >= target:
        v -= 1
    while v ** b < target:
        v += 1
    return v


def fixed_floor_leaves(H, n, eps):
    """(report, engine, leaves): the exact search, then every (position
    vector, product) leaf of a DFS whose floor is fixed at the near set's."""
    report = extremal.search_extremal(H, n)
    engine = extremal._SearchEngine(H, n)
    engine.floor = least_floor(report.ex, 1 - eps)
    leaves = []
    engine.run(lambda leaf, value: leaves.append((leaf, value)))
    return report, engine, leaves


def two_pass(H, n, eps):
    """(report, rows, worst_gap): the exact search, then every labeled
    leaf at the fixed floor, with its gap to the nearest maximizer."""
    report, engine, leaves = fixed_floor_leaves(H, n, eps)
    found = [(engine.template(labeled), value)
             for leaf, value in leaves
             for labeled in engine._orbit(leaf) or ()]
    found.sort(key=lambda pair: (-pair[1], pair[0].canonical_key()))
    total = comb(n, H.signature.r)
    rows = [(T, value, Fraction(min(len(template_diff(T, E))
                                    for E in report.extremal_templates),
                                total))
            for T, value in found]
    return report, rows, max([gap for _, _, gap in rows], default=0)


@pytest.mark.parametrize("make, n, eps", CASES, ids=IDS)
def test_one_pass_probe_matches_two_passes(make, n, eps):
    H = make()
    report, rows, worst = two_pass(H, n, eps)
    probe = stability_probe(H, n, eps)
    assert not probe.truncated
    assert probe.near_extremal == rows
    assert probe.worst_gap == worst
    found, got = near_extremal_set(H, n, eps)
    assert found == [(T, value) for T, value, _ in rows]
    assert (got.ex, got.exact, got.truncated) == (report.ex, True, False)
    assert got.extremal_templates == report.extremal_templates


CAPPED = CASES[:5] + CASES[7:]
CAPPED_IDS = IDS[:5] + IDS[7:]


@pytest.mark.parametrize(
    "make, n, eps, cap", [case + (3,) for case in CAPPED]
    + [case + (50,) for case in CAPPED],
    ids=CAPPED_IDS + ["%s-cap50" % name for name in CAPPED_IDS])
def test_capped_probe_is_truncated_inside_the_near_set(monkeypatch, make, n,
                                                       eps, cap):
    # the cap keeps the largest subs, so the maximizers come first; the
    # stash of DFS leaves is flushed while the search runs at 3, and at 50
    # on metric-r4-n5 (348 DFS leaves)
    H = make()
    report, rows, _ = two_pass(H, n, eps)
    full = {(T, value) for T, value, _ in rows}
    monkeypatch.setattr(extremal, "DEFAULT_CAP", cap)
    probe = stability_probe(H, n, eps)
    assert probe.truncated == (len(rows) > cap)
    assert ([value for _, value, _ in probe.near_extremal]
            == [value for _, value, _ in rows[:cap]])
    assert all((T, value) in full for T, value, _ in probe.near_extremal)
    _, got = near_extremal_set(H, n, eps)
    assert got.ex == report.ex
    assert got.truncated == (len(report.extremal_templates) > cap)
    assert len(got.extremal_templates) == min(cap, len(
        report.extremal_templates))
    assert set(got.extremal_templates) <= set(report.extremal_templates)


@pytest.mark.parametrize("make, n, eps", CASES[:5], ids=IDS[:5])
def test_no_orbit_below_the_final_floor_is_expanded(monkeypatch, make, n,
                                                    eps):
    # the one-pass search meets every leaf of the fixed-floor DFS, and
    # closes under relabeling only those, each once
    _, _, leaves = fixed_floor_leaves(make(), n, eps)
    calls = []
    orbit = extremal._SearchEngine._orbit

    def counted(engine, leaf):
        calls.append(leaf)
        return orbit(engine, leaf)

    monkeypatch.setattr(extremal._SearchEngine, "_orbit", counted)
    assert not stability_probe(make(), n, eps).truncated
    assert calls == [leaf for leaf, _ in leaves]


@pytest.mark.parametrize("cap", [None, 3, 50])
@pytest.mark.parametrize("make, n, eps", [CASES[i] for i in (0, 2, 3)],
                         ids=[IDS[i] for i in (0, 2, 3)])
def test_gaps_are_the_distances_to_the_rows_at_ex(monkeypatch, make, n, eps,
                                                  cap):
    # one gap per orbit: relabeling keeps the distance to the maximizer
    # set, and once the cap cuts that set (at 3 for metric-r3-n5 and
    # triples-n5) every row is a maximizer
    if cap:
        monkeypatch.setattr(extremal, "DEFAULT_CAP", cap)
    H = make()
    probe = stability_probe(H, n, eps)
    ex = probe.near_extremal[0][1]
    extremal_rows = [T for T, value, _ in probe.near_extremal if value == ex]
    for T, _, gap in probe.near_extremal:
        assert gap == min(template_dist(T, E) for E in extremal_rows)
    if near_extremal_set(H, n, eps)[1].truncated:
        assert len(extremal_rows) == len(probe.near_extremal) == cap
