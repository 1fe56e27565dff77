"""The one-pass near-extremal search against a two-pass reference.

The reference finds ex with search_extremal, then runs a second
_SearchEngine with its floor fixed at the least v with v^b >= ex^a
(1 - epsilon = a/b), collects every leaf, sorts the templates by
(-sub, canonical_key) and measures each gap with distances.template_diff.
The library answers the same question in one search whose floor follows
the best product found so far.
"""

from fractions import Fraction
from math import comb

import pytest

from hereditary import extremal
from hereditary.distances import template_diff
from hereditary.extremal import near_extremal_set, stability_probe
from hereditary.instances import digraphs, metric

from test_search_pins import PROBES

CASES = [probe[:3] for probe in PROBES] + [
    (lambda: digraphs.digraph_instance(2), 5, Fraction(1, 10)),
    (lambda: metric.metric_instance(3), 6, Fraction(1, 20)),
]
IDS = ["metric-r3-n5", "metric-r4-n4", "digraph-k2-n4", "triples-n5",
       "loop-triangles-n4", "digraph-k2-n5", "metric-r3-n6"]


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


def two_pass(H, n, eps):
    """(report, rows, worst_gap): the exact search, then every leaf at the
    fixed floor, with its gap to the nearest maximizer."""
    report = extremal.search_extremal(H, n)
    engine = extremal._SearchEngine(H, n)
    engine.floor = least_floor(report.ex, 1 - eps)
    found = []
    engine.run(lambda cids, value: found.append((engine.template(cids),
                                                 value)))
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


@pytest.mark.parametrize("make, n, eps", CASES[:5], ids=IDS[:5])
def test_capped_probe_is_truncated_inside_the_near_set(monkeypatch, make, n,
                                                       eps):
    # the cap keeps the largest subs, so the maximizers come first
    H = make()
    report, rows, _ = two_pass(H, n, eps)
    full = {(T, value) for T, value, _ in rows}
    monkeypatch.setattr(extremal, "DEFAULT_CAP", 3)
    probe = stability_probe(H, n, eps)
    assert probe.truncated == (len(rows) > 3)
    assert ([value for _, value, _ in probe.near_extremal]
            == [value for _, value, _ in rows[:3]])
    assert all((T, value) in full for T, value, _ in probe.near_extremal)
    _, got = near_extremal_set(H, n, eps)
    assert got.ex == report.ex
    assert got.truncated == (len(report.extremal_templates) > 3)
    assert len(got.extremal_templates) == min(3, len(
        report.extremal_templates))
    assert set(got.extremal_templates) <= set(report.extremal_templates)
