"""Metric spaces with an unconstrained ternary relation on top.

Signature: a ternary E plus the distance relations R1..R3. The distance
part must be a metric space with values in {1..3}; E is free. The family
exists mainly to exhibit templates with errors: with mixed arities a
choice on a 3-subset can clash with choices on overlapping 3-subsets
inside a 4-point block, so choice functions need not produce distinct
(or any) subpatterns.
"""

import itertools

from ..properties import HereditaryProperty, INDUCED
from ..qftypes import type_from_structure
from ..structures import Signature, Structure
from ..templates import Template
from . import metric

SIG = Signature([("E", 3), ("R1", 2), ("R2", 2), ("R3", 2)])


def mixed_instance():
    """Metric triangle and universe constraints on the reduct, E free."""
    return HereditaryProperty(SIG, metric.forbidden_entries(3), mode=INDUCED,
                              name="metric-r3-free-ternary")


def metric_type(i, j, k, e_facts=None):
    """The 3-point type with d(1,2)=i, d(1,3)=j, d(2,3)=k and the given
    E-facts (a set of variable maps; default none)."""
    dist = metric.metric_space(3, 3, {(1, 2): i, (1, 3): j, (2, 3): k})
    return type_from_structure(
        Structure(SIG, 3, dict(dist.relations, E=e_facts or ())))


def q1():
    """All distances 1, no E-facts."""
    return metric_type(1, 1, 1)


def q2():
    """d(1,2)=2, other distances 1, no E-facts."""
    return metric_type(2, 1, 1)


def error_template():
    """A 4-point template with an error: the choices on the four 3-subsets
    are pairwise satisfiable but force d(1,2) to be both 1 and 2 inside
    {1,2,3,4}, so no choice function yields a subpattern."""
    H = mixed_instance()
    choices = {}
    for A in itertools.combinations(range(1, 5), 3):
        choices[A] = {q2()} if A == (1, 2, 4) else {q1()}
    return Template(H, 4, choices)


def sample_type(rng):
    """A random valid 3-point type, drawn with the random.Random rng: metric
    distances plus random E-facts."""
    triples = [(i, j, k) for i in (1, 2, 3) for j in (1, 2, 3)
               for k in (1, 2, 3) if metric.triangle_ok(i, j, k)]
    i, j, k = rng.choice(triples)
    maps = list(itertools.product((1, 2, 3), repeat=3))
    e_facts = {m for m in maps if rng.random() < 0.5}
    return metric_type(i, j, k, e_facts)
