"""The approximate enumeration theorem at desk scale: |H_n| = ex(n)^(1+o(1)).

count_members counts H_n over isomorphism classes, extending each class of
H_{n-1} by one point, so it reaches n = 6 or 7. ex(n) comes from each
family's closed-form oracle (checked against the extremal search in the
tests). Each family goes up to the largest n whose count finishes within
the node budget; the whole demo takes about 8 s on a 2-core machine.
"""

import math

from hereditary.errors import BudgetExceeded
from hereditary.instances import digraphs, metric, triples
from hereditary.properties import count_members

BUDGET = 2 * 10 ** 6

FAMILIES = [
    ("digraphs, no transitive 3-tournament", digraphs.digraph_instance(2),
     lambda n: digraphs.digraph_extremal_oracle(2, n)[0]),
    ("metric spaces, distances {1,2,3}", metric.metric_instance(3),
     lambda n: metric.metric_extremal_oracle(3, n)[0]),
    ("metric spaces, distances {1,2,3,4}", metric.metric_instance(4),
     lambda n: metric.metric_extremal_oracle(4, n)[0]),
    ("cancellative triples", triples.triples_instance(),
     lambda n: triples.triples_extremal_oracle(n)[0]),
]

for title, H, ex in FAMILIES:
    print("%s:" % title)
    for n in range(3, 10):
        try:
            count = count_members(H, n, budget=BUDGET)
        except BudgetExceeded:
            print("  n=%d over the budget of %d nodes" % (n, BUDGET))
            break
        value = ex(n)
        ratio = ("%.4f" % (math.log(count) / math.log(value))
                 if value > 1 else "-")
        print("  n=%d |H_n|=%d ex(n)=%d log|H_n|/log ex(n)=%s"
              % (n, count, value, ratio))
    print()
