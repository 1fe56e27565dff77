"""The containers hypergraph over located realized types, its co-degree
data, the exponent m(k,r), and the diagram-set template construction.

Vertices are the located realized types of the property over {1..n}; edges
are the syntactic k-diagrams over those vertices that are unsatisfiable or
whose witness structure is not a member. Independent sets contain the
canonical type-diagram of every member.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial

from .diagrams import LocatedType
from .errors import BudgetExceeded, InvalidArgument
from .properties import realized_type_space
from .templates import Template, block_checker

DEFAULT_EDGE_BUDGET = 10 ** 7


class ContainerHypergraph(object):
    def __init__(self, H, n, k, vertices, edges_by_block, alpha):
        self.property = H
        self.n = n
        self.k = k
        self.r = H.signature.r
        self.s = comb(k, self.r)  # uniformity
        self.vertices = vertices
        self.edges_by_block = edges_by_block
        self.alpha = alpha

    def edges(self):
        for block in sorted(self.edges_by_block):
            yield from self.edges_by_block[block]

    def num_vertices(self):
        return len(self.vertices)

    def num_edges(self):
        return sum(len(es) for es in self.edges_by_block.values())

    def average_degree(self):
        if not self.vertices:
            raise InvalidArgument("empty vertex set")
        return Fraction(self.num_edges() * self.s, self.num_vertices())


def build_hypergraph(H, k, n, budget=DEFAULT_EDGE_BUDGET):
    """Materialize the hypergraph for containers analysis at size k: the
    edges of the block {1..k}, relabeled onto every k-subset."""
    r = H.signature.r
    if not H.forbidden:
        raise InvalidArgument("forbidden family must be nonempty")
    if k < r or n < k:
        raise InvalidArgument("need k >= r and n >= k")
    space = realized_type_space(H)
    vertices = [LocatedType(A, p)
                for A in itertools.combinations(range(1, n + 1), r)
                for p in space]
    s = comb(k, r)
    per_block = len(space) ** s
    if per_block * comb(n, k) > budget:
        raise BudgetExceeded("edge space exceeds budget")
    # the type assignments on {1..k} whose merge is not a member
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
    return ContainerHypergraph(H, n, k, vertices, edges_by_block,
                               len(rel_edges))


def degree(Hg, sigma):
    """d(sigma) = number of edges containing the vertex set sigma."""
    sigma = frozenset(sigma)
    support = set()
    for v in sigma:
        support.update(v.support)
    count = 0
    for block, edges in Hg.edges_by_block.items():
        if not support.issubset(block):
            continue
        count += sum(1 for e in edges if sigma.issubset(e))
    return count


def max_codegrees(Hg, j):
    """d^(j)(v) for every vertex: max degree of a j-set through v.

    Only j-sets inside some edge can have positive degree, so one pass
    counts the edges through each of them; vertices on no edge get 0.
    """
    degrees = Counter()
    for edges in Hg.edges_by_block.values():
        for e in edges:
            degrees.update(itertools.combinations(sorted(e), j))
    out = {v: 0 for v in Hg.vertices}
    for sigma, d in degrees.items():
        for v in sigma:
            if d > out[v]:
                out[v] = d
    return out


class CodegreeReport(object):
    def __init__(self, tau, d, delta_j, delta, threshold=None, threshold_met=None):
        self.tau = tau
        self.d = d
        self.delta_j = delta_j
        self.delta = delta
        self.threshold = threshold
        self.threshold_met = threshold_met

    def __repr__(self):
        return "CodegreeReport(tau=%s, d=%s, delta=%s)" % (
            self.tau, self.d, self.delta)


def codegree_function(Hg, tau, epsilon=None):
    """delta_j from the defining equation and the weighted sum delta(H,tau).

    With epsilon given, also evaluates the containers-theorem hypothesis
    threshold eps' / (12 s!) where eps' rescales epsilon by the full type
    space count to the power s.
    """
    tau = Fraction(tau)
    if not 0 < tau < Fraction(1, 2):
        raise InvalidArgument("tau must lie in (0, 1/2)")
    if not Hg.vertices:
        raise InvalidArgument("empty vertex set")
    s = Hg.s
    d = Hg.average_degree()
    if d == 0:
        report = CodegreeReport(tau, d, {j: Fraction(0) for j in range(2, s + 1)},
                                Fraction(0))
    else:
        N = Hg.num_vertices()
        delta_j = {}
        for j in range(2, s + 1):
            total = sum(max_codegrees(Hg, j).values())
            delta_j[j] = Fraction(total) / (tau ** (j - 1) * N * d)
        weight = Fraction(2) ** (comb(s, 2) - 1)
        delta = weight * sum(Fraction(1, 2 ** comb(j - 1, 2)) * delta_j[j]
                             for j in range(2, s + 1))
        report = CodegreeReport(tau, d, delta_j, delta)
    if epsilon is not None:
        from .qftypes import atoms
        eps = Fraction(epsilon)
        full_space = Fraction(2) ** len(atoms(Hg.property.signature))
        eps_prime = eps / full_space ** s
        report.threshold = eps_prime / (12 * factorial(s))
        report.threshold_met = report.delta <= report.threshold
    return report


def exponent_m(y, x):
    """m(y,x) = max over x < l <= y of (C(l,x)-1)/(l-x), exact rational."""
    if not x < y:
        raise InvalidArgument("need x < y")
    value = max(Fraction(comb(l, x) - 1, l - x) for l in range(x + 1, y + 1))
    assert value > 1
    return value


def suggested_tau(n, k, r, gamma):
    """tau = n^(-1/m) / gamma, as a float (reporting only)."""
    m = exponent_m(k, r)
    return float(n) ** (-1.0 / float(m)) / float(gamma)


def build_template_from_diagram_set(H, n, located_set):
    """D_sigma: the template with Ch(A) = Ch_sigma(A); sigma must be complete."""
    choices = {}
    for v in located_set:
        choices.setdefault(v.support, set()).add(v.qftype)
    T = Template(H, n, choices)
    if not T.is_complete():
        raise InvalidArgument("diagram set is not complete")
    return T


def independence_check(Hg, M):
    """Diag^tp(M) is independent iff M is a member; on failure the witnessing
    edge is returned as the second component."""
    from .diagrams import type_diagram
    if M.n != Hg.n:
        raise InvalidArgument("domain mismatch")
    entries = type_diagram(M).entries
    for block, edges in Hg.edges_by_block.items():
        for edge in edges:
            if edge.issubset(entries):
                return False, edge
    return True, None
