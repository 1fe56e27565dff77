"""Edge cases of the extremal layer: empty H_n, huge ex, the maximizer cap."""

import time
from fractions import Fraction

from hereditary import extremal
from hereditary.extremal import (density_sequence, near_extremal_set,
                                 pow_geq, search_extremal, stability_probe)
from hereditary.instances import digraphs, metric
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty)
from hereditary.structures import Structure


def at_most_two_points():
    """Loop-free digraphs on at most 2 points: H_3 is empty."""
    sig = digraphs.SIG
    return HereditaryProperty(
        sig, [ForbiddenEntry(Structure(sig, 1, {"E": [(1, 1)]})),
              ForbiddenEntry(Structure(sig, 3, {"E": []}))],
        mode=NON_INDUCED)


def test_pow_geq_with_a_zero_base():
    assert pow_geq(0, 3, 0, 1) and pow_geq(4, 3, 0, 1)
    assert not pow_geq(0, 3, 4, 1)
    assert pow_geq(1, 2, 0, 0) and not pow_geq(0, 2, 0, 0)  # 0^0 = 1


def test_empty_members_give_ex_zero():
    H = at_most_two_points()
    reps = density_sequence(H, 3)
    assert [(rep.n, rep.ex) for rep in reps] == [(2, 4), (3, 0)]
    assert reps[1].b_n == 0.0 and reps[1].extremal_templates == []
    probe = stability_probe(H, 3, Fraction(1, 2))
    assert probe.near_extremal == [] and probe.worst_gap == 0


def test_near_extremal_floor_is_bisected(monkeypatch):
    ex, frac = 3 ** 72, Fraction(9, 10)
    calls = []

    def counted(*args):
        calls.append(args)
        return pow_geq(*args)

    monkeypatch.setattr(extremal, "pow_geq", counted)
    started = time.perf_counter()
    floor = extremal._floor(ex, frac)
    assert time.perf_counter() - started < 1.0
    assert len(calls) <= ex.bit_length()
    # the least v with v^10 >= ex^9
    assert 1 <= floor <= ex
    assert floor ** 10 >= ex ** 9 and (floor - 1) ** 10 < ex ** 9


def test_maximizer_cap_truncates(monkeypatch):
    monkeypatch.setattr(extremal, "DEFAULT_CAP", 3)
    rep = search_extremal(digraphs.digraph_instance(2), 5)
    assert (rep.ex, rep.exact, rep.truncated) == (729, True, True)
    assert len(rep.extremal_templates) == 3
    assert rep.stats == {"nodes": 3071, "pruned": 42824}
    found, _ = near_extremal_set(metric.metric_instance(3), 5,
                                 Fraction(1, 10))
    assert len(found) == 3
