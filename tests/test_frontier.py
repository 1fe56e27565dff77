"""The frontier record: the largest searches that finish, each pinned to
its family's closed form and extremal family, and the largest counts.

Each search runs under DEFAULT_NODE_BUDGET and must be exact, and each
count under DEFAULT_ENUM_BUDGET. Later changes to the search and the
count compare against these values; grow the record by adding cases.
"""

import json

import pytest

from hereditary import cli
from hereditary.extremal import search_extremal
from hereditary.instances import digraphs, metric, triples
from hereditary.properties import count_members

CASES = [
    ("triples-n7", triples.triples_instance, 7, 4096, 105,
     lambda: triples.triples_extremal_oracle(7)),
    ("metric-r3-n7", lambda: metric.metric_instance(3), 7, 7077888, 105,
     lambda: metric.metric_extremal_oracle(3, 7)),
    ("metric-r4-n6", lambda: metric.metric_instance(4), 6, 14348907, 1,
     lambda: metric.metric_extremal_oracle(4, 6)),
    ("digraph-k2-n6", lambda: digraphs.digraph_instance(2), 6, 19683, 10,
     lambda: digraphs.digraph_extremal_oracle(2, 6)),
]


def images(name, T):
    """T's image under its family's psi, comparable with the oracle's
    extremal family."""
    if name.startswith("triples"):
        return frozenset(triples.psi(T))
    if name.startswith("digraph"):
        return frozenset(digraphs.psi(T))
    return frozenset(metric.psi(T).items())


def family_images(name, family):
    if name.startswith("metric"):
        return {frozenset(im.items()) for im in family}
    return set(map(frozenset, family))


@pytest.mark.parametrize("name, make, n, ex, count, oracle", CASES,
                         ids=[case[0] for case in CASES])
def test_frontier_search_equals_the_closed_form(name, make, n, ex, count,
                                                oracle):
    rep = search_extremal(make(), n)
    assert (rep.exact, rep.truncated) == (True, False)
    value, family = oracle()
    assert rep.ex == value == ex
    assert len(rep.extremal_templates) == count
    assert {images(name, T) for T in rep.extremal_templates} == \
        family_images(name, family)


def test_cli_triples_n7_is_exact_under_the_default_budget(capsys):
    code = cli.main(["extremal", "--instance", "triples", "--n", "7"])
    body = json.loads(capsys.readouterr().out)["report"]
    assert code == 0
    assert (body["ex"], body["exact"]) == (4096, True)


def test_frontier_count_triples_n7():
    # the labeled walk of enumerate_members gives the same count (in
    # about 40 s)
    assert count_members(triples.triples_instance(), 7) == 451_793
