"""The containers hypergraph over located realized types, its co-degree
data, the exponent m(k,r), and the diagram-set template construction.

Vertices are the located realized types of the property over {1..n}; edges
are the syntactic k-diagrams over those vertices that are unsatisfiable or
whose witness structure is not a member. Independent sets contain the
canonical type-diagram of every member.

Every k-block's edges are the edges of the relative block {1..k},
relabeled order-preservingly, so the hypergraph is kept as that block: the
type assignments on its r-subsets whose merge is not a member, as tuples of
type ids of the block kernel (templates._BlockChecker). They are the
lexicographic product of the type ids minus the members, which the
kernel's DFS along its block schedule (templates.closing_blocks) finds
(_BlockChecker.members). Co-degrees count the j-sets of those tuples
once. The k-blocks that place a point set U at the
relative points Q of {1..k} are counted by binomials of the free gaps of U
and Q (_gaps), so a degree is a sum over placements, not over blocks. A
j-set in exactly one k-block (covering k points, or any j-set when n = k)
has its count as degree, and the largest counts through each vertex follow
in closed form from where the vertex's r-subset can sit in a k-block; the
other j-sets are added into every block through int vertex keys.
Independence is one lookup per block. The vertex list is built on first
read, and a block's edges as frozensets of located types only when
ContainerHypergraph.block_edges is asked for that block.
"""

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from operator import ge, itemgetter

from .diagrams import LocatedType, SyntacticDiagram, type_diagram
from .errors import BudgetExceeded, InvalidArgument
from .properties import realized_type_space
from .qftypes import atoms
from .templates import Template, block_checker, block_subsets, r_subsets

DEFAULT_EDGE_BUDGET = 10 ** 7


class ContainerHypergraph(object):
    """The hypergraph at block size k on {1..n}, kept as its relative block.

    `rel_edges` lists the edges of the block {1..k}: tuples of type ids
    (the block kernel's, `types` maps them back) on the relative r-subsets
    of {1..k}, in lexicographic order; every k-subset of {1..n} holds
    their relabelings, which `block_edges(block)` builds as frozensets of
    located types. Co-degrees key a vertex by the int
    `subset_index * width + type_id`, with its r-subset's index in
    r_subsets(n, r) (the indices templates.block_subsets gives); `width`
    exceeds every type id of the vertices. `vertices`, the located realized
    types over {1..n}, is built on first read; counting reads only its size.
    """

    def __init__(self, H, n, k, rel_edges):
        checker = block_checker(H)
        self.property = H
        self.n = n
        self.k = k
        self.r = H.signature.r
        self.s = comb(k, self.r)  # uniformity
        self.space = realized_type_space(H)
        self.rel_edges = rel_edges
        self.alpha = len(rel_edges)
        self.types = checker.types        # type id -> QfType
        self.type_ids = checker.type_ids  # QfType -> type id
        self.width = len(self.types)
        self._rel_counts = {}

    def block_edges(self, block):
        """The edges on the k-subset `block` of {1..n}, increasing, as
        frozensets of located types, in the order of `rel_edges`."""
        if not (len(block) == self.k and list(block) == sorted(set(block))
                and 1 <= block[0] and block[-1] <= self.n):
            raise InvalidArgument("block must be an increasing k-subset of "
                                  "{1..%d}, got %r" % (self.n, block))
        rsubs = list(itertools.combinations(block, self.r))
        return [frozenset(LocatedType(A, self.types[t]) for A, t in zip(rsubs, e))
                for e in self.rel_edges]

    @cached_property
    def vertices(self):
        return [LocatedType(A, p)
                for A in itertools.combinations(range(1, self.n + 1), self.r)
                for p in self.space]

    def num_vertices(self):
        return comb(self.n, self.r) * len(self.space)

    def num_edges(self):
        return self.alpha * comb(self.n, self.k)

    def average_degree(self):
        if not self.num_vertices():
            raise InvalidArgument("empty vertex set")
        return Fraction(self.num_edges() * self.s, self.num_vertices())

    def rel_counts(self, j):
        """The j-sets of the relative edges, counted: for each j relative
        positions (increasing), the number of edges holding each tuple of
        type ids there. Memoized."""
        counts = self._rel_counts.get(j)
        if counts is None:
            columns = list(zip(*self.rel_edges)) or [()] * self.s
            counts = self._rel_counts[j] = {
                pos: Counter(zip(*[columns[p] for p in pos]))
                for pos in itertools.combinations(range(self.s), j)}
        return counts


def build_hypergraph(H, k, n):
    """The hypergraph for containers analysis at size k: the edges of the
    block {1..k}, which every k-subset of {1..n} repeats. They are the type
    assignments of itertools.product over S_r(H) that are not members
    (_BlockChecker.members), in the product's order.

    DEFAULT_EDGE_BUDGET bounds |S_r(H)|^C(k,r) * C(n,k), the size of the
    edge space over all blocks."""
    r = H.signature.r
    if not H.forbidden:
        raise InvalidArgument("forbidden family must be nonempty")
    if k < r or n < k:
        raise InvalidArgument("need k >= r and n >= k")
    space = realized_type_space(H)
    s = comb(k, r)
    per_block = len(space) ** s
    if per_block * comb(n, k) > DEFAULT_EDGE_BUDGET:
        raise BudgetExceeded("edge space exceeds budget")
    # the type assignments on {1..k} whose merge is not a member
    checker = block_checker(H)
    ids = [checker.type_id(p) for p in space]
    members = set(checker.members(k, ids))
    rel_edges = [combo for combo in itertools.product(ids, repeat=s)
                 if combo not in members]
    return ContainerHypergraph(H, n, k, rel_edges)


def degree(Hg, sigma):
    """d(sigma) = number of edges containing the vertex set sigma.

    Let U be the points of sigma's r-subsets. A k-block holding U places
    it at some |U|-subset Q of {1..k}, and sigma's r-subsets at relative
    positions there; the blocks that place U at Q are prod_i C(g_i(U),
    g_i(Q)) over the free gaps (_gaps). So d(sigma) is the sum over Q of
    the relative count of sigma's types at those positions times that
    product; no block is visited."""
    sigma = sorted(frozenset(sigma))
    if not sigma:
        return Hg.num_edges()
    supports = [v.support for v in sigma]
    if len(set(supports)) < len(supports):
        return 0  # two types on one r-subset: no edge holds both
    types = tuple(Hg.type_ids.get(v.qftype, -1) for v in sigma)
    points = sorted(set().union(*supports))
    if -1 in types or points[0] < 1 or points[-1] > Hg.n:
        return 0  # a type outside the space, or a point outside {1..n}
    counts = Hg.rel_counts(len(sigma))
    rel = {Q: i for i, Q in
           enumerate(itertools.combinations(range(1, Hg.k + 1), Hg.r))}
    gaps = _gaps(points, Hg.n)
    total = 0
    for Q in itertools.combinations(range(1, Hg.k + 1), len(points)):
        blocks = prod(map(comb, gaps, _gaps(Q, Hg.k)))
        if blocks:
            at = dict(zip(points, Q))
            position = tuple(rel[tuple(map(at.get, A))] for A in supports)
            total += counts[position][types] * blocks
    return total


def _gaps(A, n):
    """The numbers of points of {1..n} free below, between and above the
    sorted points A. The k-blocks of {1..n} that place A at the relative
    points Q of {1..k} choose g_i(Q) of the g_i(A) points in each gap, so
    there are prod_i C(g_i(A), g_i(Q)) of them, and some iff g(A) >= g(Q)
    entrywise."""
    ends = (0, *A, n + 1)
    return tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


@lru_cache(maxsize=256)
def _placements(n, r, k):
    """The r-subsets of {1..n} grouped by the relative r-subsets of {1..k}
    they can sit at in some k-block: pairs of those relative positions (in
    lexicographic order) and the indices in r_subsets(n, r) of the
    r-subsets there. The r-subsets whose gaps (_gaps), capped at k - r,
    are equal share a group (Q's gaps are at most k - r, so the cap
    changes no comparison)."""
    need = [_gaps(Q, k) for Q in itertools.combinations(range(1, k + 1), r)]
    by_room = defaultdict(list)
    for a, A in enumerate(r_subsets(n, r)):
        by_room[tuple(min(g, k - r) for g in _gaps(A, n))].append(a)
    return tuple((tuple(p for p, want in enumerate(need)
                        if all(map(ge, room, want))), tuple(indices))
                 for room, indices in by_room.items())


def _max_codegree_keys(Hg, j):
    """d^(j) by int vertex key, for the vertices on some edge.

    The j-sets of the relative edges are counted once (rel_counts). A
    j-set that lies in exactly one k-block, as when its r-subsets cover
    all k points or when n = k, has its count as its degree, and is taken
    in closed form. The counts at each j relative positions, sorted
    ascending, build one dict per position, which keeps the largest count
    through each type there without a max per j-set. A vertex (A, t) of
    {1..n} takes the largest of those over the relative r-subsets Q of
    {1..k} where A can sit in some k-block: a_1 >= q_1, a_{i+1} - a_i >=
    q_{i+1} - q_i and n - a_r >= k - q_r (_placements, which groups the
    r-subsets by those Q). No block is visited for these j-sets.

    When n > k, the j-sets on fewer than k points lie in several blocks:
    their counts are added up block by block. Within a block a j-set's
    vertices come in the lexicographic order of their r-subsets, which
    relabeling preserves, so the same j-set gets the same key tuple from
    every block holding it.
    """
    n, k, r, width = Hg.n, Hg.k, Hg.r, Hg.width
    rel = list(itertools.combinations(range(1, k + 1), r))
    through = [[] for _ in rel]  # position -> {type id: count} dicts
    shared = []
    for pos, counts in Hg.rel_counts(j).items():
        if n == k or len(set().union(*[rel[p] for p in pos])) == k:
            # ascending, so each dict keeps the largest count per type
            ranked = sorted(counts, key=counts.__getitem__)
            values = list(map(counts.__getitem__, ranked))
            for i, p in enumerate(pos):
                through[p].append(dict(zip(map(itemgetter(i), ranked), values)))
        else:
            shared.append((pos, list(counts.items())))
    best = {}
    for fits, indices in _placements(n, r, k):
        tops = dict(sorted(itertools.chain.from_iterable(
            top.items() for p in fits for top in through[p]),
            key=itemgetter(1)))
        for t, d in tops.items():
            best.update(zip([a * width + t for a in indices],
                            itertools.repeat(d)))
    if not shared:
        return best
    degrees = defaultdict(int)
    for idx in block_subsets(n, r, k):
        for pos, items in shared:
            base = [idx[p] * width for p in pos]
            for types, d in items:
                degrees[tuple(map(int.__add__, base, types))] += d
    for sigma, d in degrees.items():
        for v in sigma:
            if d > best.get(v, 0):
                best[v] = d
    return best


def max_codegrees(Hg, j):
    """d^(j)(v) for every vertex: max degree of a j-set through v.

    Only j-sets inside some edge can have positive degree; vertices on no
    edge get 0.
    """
    if j < 0:
        raise InvalidArgument("need j >= 0, got %r" % (j,))
    best = _max_codegree_keys(Hg, j)
    index = {A: i for i, A in enumerate(r_subsets(Hg.n, Hg.r))}
    return {v: best.get(index[v.support] * Hg.width + Hg.type_ids[v.qftype], 0)
            for v in Hg.vertices}


class CodegreeReport(object):
    def __init__(self, tau, d, delta_j, delta):
        self.tau = tau
        self.d = d
        self.delta_j = delta_j
        self.delta = delta
        self.threshold = None
        self.threshold_met = None

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
    if not Hg.num_vertices():
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
            total = sum(_max_codegree_keys(Hg, j).values())
            delta_j[j] = Fraction(total) / (tau ** (j - 1) * N * d)
        weight = Fraction(2) ** (comb(s, 2) - 1)
        delta = weight * sum(Fraction(1, 2 ** comb(j - 1, 2)) * delta_j[j]
                             for j in range(2, s + 1))
        report = CodegreeReport(tau, d, delta_j, delta)
    if epsilon is not None:
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
    """tau = n^(-1/m) / gamma, as a float (reporting only); gamma > 0."""
    if not gamma > 0:
        raise InvalidArgument("gamma must be positive, got %r" % (gamma,))
    m = exponent_m(k, r)
    return float(n) ** (-1.0 / float(m)) / float(gamma)


def build_template_from_diagram_set(H, n, located_set):
    """D_sigma: the template with Ch(A) = Ch_sigma(A); sigma must be complete."""
    T = Template(H, n, SyntacticDiagram(located_set).choice_sets())
    if not T.is_complete():
        raise InvalidArgument("diagram set is not complete")
    return T


def independence_check(Hg, M):
    """Diag^tp(M) is independent iff M is a member; on failure the witnessing
    edge is returned as the second component.

    Diag^tp(M) holds one type per r-subset, so at most one edge per block
    lies inside it: the one whose type ids are M's on the block, if that
    tuple is a relative edge. The first such block, in lexicographic order,
    gives the witness. When Diag^tp(M) holds a type outside S_r(H), it is
    not a vertex set of the hypergraph and M is not a member, but no edge
    witnesses that: the answer is (False, None).
    """
    if not (M.signature == Hg.property.signature):
        raise InvalidArgument("signature mismatch")
    if M.n != Hg.n:
        raise InvalidArgument("domain mismatch")
    entries = type_diagram(M).entries
    space = set(realized_type_space(Hg.property))
    if any(v.qftype not in space for v in entries):
        return False, None
    ids = Hg.type_ids
    on = {v.support: ids[v.qftype] for v in entries}
    edge_index = {e: i for i, e in enumerate(Hg.rel_edges)}
    for block in itertools.combinations(range(1, Hg.n + 1), Hg.k):
        i = edge_index.get(tuple(on[A] for A in
                                 itertools.combinations(block, Hg.r)))
        if i is not None:
            return False, Hg.block_edges(block)[i]
    return True, None
