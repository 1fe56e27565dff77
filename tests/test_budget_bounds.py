"""The least budget that lets count_members and enumerate_members finish.

count_members ticks one unit per extension DFS node and m! per class key;
enumerate_members ticks one per DFS node. At the least budget a run
finishes, and one unit below it raises BudgetExceeded, so a change to the
walk that visits more or fewer nodes shows here.
"""

import pytest

from hereditary.errors import BudgetExceeded
from hereditary.instances import digraphs, metric, triples
from hereditary.properties import count_members, enumerate_members

# name -> (property, n, least count_members budget, least
# enumerate_members budget)
CASES = {
    "digraph-k2-n5": (lambda: digraphs.digraph_instance(2), 5, 4153, 19367),
    "metric-r3-n4": (lambda: metric.metric_instance(3), 4, 495, 814),
    "triples-n5": (triples.triples_instance, 5, 582, 764),
}


def stream_length(H, n, budget):
    return sum(1 for _ in enumerate_members(H, n, budget))


@pytest.mark.parametrize("name", sorted(CASES))
def test_count_members_least_budget(name):
    make, n, least, stream_least = CASES[name]
    H = make()
    count = count_members(H, n, least)
    with pytest.raises(BudgetExceeded):
        count_members(H, n, least - 1)
    assert count == stream_length(H, n, stream_least)


@pytest.mark.parametrize("name", sorted(CASES))
def test_enumerate_members_least_budget(name):
    make, n, _, least = CASES[name]
    H = make()
    stream_length(H, n, least)
    with pytest.raises(BudgetExceeded):
        stream_length(H, n, least - 1)
