"""Extremal search over H-random templates, density sequence, stability.

The search assigns choice sets to r-subsets in colexicographic order with
(a) candidate sets drawn from the realized type space, (b) a partial-product
upper bound against the incumbent, (c) one candidate mask per newly
completed block of size <= k, read from the block kernel's allowed types
(see templates._BlockChecker), and (d) when some realized type has a fact
on fewer than r points, one candidate mask per earlier r-subset in the
error window, from fact-mask agreement. The masks of a step are ANDed, so
each node tests one bit per candidate. (e) Relabeling the points of
{1..n} keeps H-randomness and sub, since H is closed under isomorphism, so
the search visits only templates that are lex-least under the point
transpositions (x, x + 1) (lex-leader symmetry breaking, Crawford,
Ginsberg, Luks and Roy 1996): a candidate is refused as soon as some
transposed vector is below the current one. A leaf that is the least of
its S_n orbit is expanded back into its labeled leaves, so every labeled
H-random template at the final floor is still found once. The expansion
closes the leaf under two relabelings that generate S_n, the transposition
(1 2) and the n-cycle (1 2 ... n), while the DFS's test uses the adjacent
transpositions. Each relabeling is one table built straight from its point
permutation (_SearchEngine._relabeling), read through the block kernel's
action of an order of 1..r on choice sets.

search_extremal, near_extremal_set and stability_probe each make one
search (_search). Its floor follows the best product found so far: the
least v with v^b >= best^a for 1 - epsilon = a/b, which is best itself for
the exact search. Orbits are expanded only for the DFS leaves at or above
the floor when a stash of DEFAULT_CAP leaves fills or the run ends. Leaves
stay vectors of candidate positions, and the run keeps those at the
current floor, at most DEFAULT_CAP of them, grouped by orbit, the largest
products first; a list is truncated when a leaf at its floor was not kept.
Under the cap, the leaves kept among those tied at the least kept product
are the first ones found, so they depend on the order in which orbits are
met. Templates are built only for the leaves returned, and each report's
stats count that one search: `nodes` is the nodes visited plus the
labeled leaves of each expanded orbit after its first, and `pruned` the
candidates cut by a check, by the product bound or by the symmetry test.
Leaves are sorted by the ranks of their candidates, which keep the order
of their sorted fact vectors. The stability probe measures distances as
Hamming distances between the position vectors, in integers, with one
Fraction per orbit.
"""

import itertools
import math
from fractions import Fraction
from functools import partial
from operator import add, itemgetter

from .distances import dist, transfer_subpattern
from .errors import BudgetExceeded, InvalidArgument
from .properties import realized_type_space
from .templates import (Template, block_checker, closing_blocks, error_pairs,
                        is_full_subpattern, located_agree, r_subsets,
                        template_from_structure, tuple_getter)

DEFAULT_NODE_BUDGET = 10 ** 8
DEFAULT_CAP = 10 ** 4
MAX_TYPES_FOR_SEARCH = 12


class ExtremalReport(object):
    def __init__(self, n, ex, extremal_templates, r, stats, exact=True,
                 truncated=False):
        self.n = n
        self.ex = ex
        self.extremal_templates = extremal_templates
        self.r = r
        self.stats = stats
        self.exact = exact
        self.truncated = truncated

    @property
    def b_n(self):
        """ex^(1/C(n,r)) as a float; the exact pair is (ex, C(n,r))."""
        if self.ex <= 0:
            return 0.0
        return math.exp(math.log(self.ex) / math.comb(self.n, self.r))

    def exact_pair(self):
        return (self.ex, math.comb(self.n, self.r))

    def __repr__(self):
        return ("ExtremalReport(n=%d, ex=%d, maximizers=%d, exact=%s)"
                % (self.n, self.ex, len(self.extremal_templates), self.exact))


class StabilityProbe(object):
    def __init__(self, n, epsilon, near_extremal, worst_gap, stats,
                 truncated=False):
        self.n = n
        self.epsilon = epsilon
        self.near_extremal = near_extremal  # list of (template, sub, min_dist)
        self.worst_gap = worst_gap
        self.stats = stats  # nodes and prunes of the probe's one search
        self.truncated = truncated  # some near-extremal template was cut

    def __repr__(self):
        return "StabilityProbe(n=%d, eps=%s, worst_gap=%s)" % (
            self.n, self.epsilon, self.worst_gap)


def pow_geq(x, p, y, q):
    """x^p >= y^q for non-negative integers, float prescreen + exact
    fallback; exact when a base is 0."""
    if x == 0 or y == 0:
        return x ** p >= y ** q
    lhs = p * math.log(x)
    rhs = q * math.log(y)
    if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs), abs(rhs)):
        return lhs > rhs
    return x ** p >= y ** q


def candidate_sets(H):
    """All nonempty subsets of S_r(H), largest first, deterministic order."""
    space = realized_type_space(H)
    if len(space) > MAX_TYPES_FOR_SEARCH:
        raise BudgetExceeded(
            "realized type space too large for generic search (%d types)"
            % len(space))
    return [frozenset(combo) for m in range(len(space), 0, -1)
            for combo in itertools.combinations(space, m)]


class _SearchEngine(object):
    """DFS over choice-set assignments, read through the block kernel.

    The current assignment is an int array of choice-set ids, one per
    r-subset. At step i the candidates that pass are one bit mask over the
    candidate list, the AND of one mask per check of the step. A check is
    a block closing at step i, whose mask holds the candidates inside the
    kernel's allowed types for the block's other choice sets; or, when
    some type has a fact on fewer than r points, an error partner j (a
    pair (j, i) of templates.error_pairs), whose mask holds the candidates
    whose every type agrees with every type of the choice set on
    subsets[j]. Each check memoizes its masks by the ids it reads.
    """

    def __init__(self, H, n, node_budget=DEFAULT_NODE_BUDGET):
        self.H = H
        self.n = n
        self.r = H.signature.r
        self.subsets = r_subsets(n, self.r)
        self.checker = block_checker(H)
        cands = candidate_sets(H)
        # (size, choice-set id) per candidate, and each id's set
        self.cands = [(len(c), self.checker.set_id(c)) for c in cands]
        self.sets = {cid: c for (_, cid), c in zip(self.cands, cands)}
        self.cand_sets = cands  # each candidate's choice set, by position
        self.max_card = max(len(c) for c in cands)
        self.type_mask = 0  # every candidate's types
        for _, cid in self.cands:
            self.type_mask |= self.checker.set_masks[cid]
        self.fits = {}  # type mask -> the candidates inside it
        # per step: (memo, getter of the ids read, mask of those ids)
        self.checks = [[] for _ in self.subsets]
        block_masks = {}  # shared by the blocks of one size
        for i, blocks in enumerate(closing_blocks(n, self.r, H.k)):
            for size, get in blocks:
                self.checks[i].append((block_masks.setdefault(size, {}), get,
                                       partial(self._block_mask, size)))
        self.mixed = any(self.checker.set_low[cid] for _, cid in self.cands)
        if self.mixed:
            for j, i in error_pairs(n, self.r):
                self.checks[i].append(({}, itemgetter(j),
                                       partial(self._pair_mask, j, i)))
        # size-r validity is structural: candidates are subsets of S_r(H)
        points = tuple(range(1, n + 1))
        self.index = {A: j for j, A in enumerate(self.subsets)}
        self.pos = {cid: p for p, (_, cid) in enumerate(self.cands)}
        # order of 1..r -> its act list; the identity's is `same`
        self.same = list(range(len(self.cands)))
        self.acts = {points[:self.r]: self.same}
        self.transpositions = [
            self._relabeling(points[:x - 1] + (x + 1, x) + points[x + 1:])
            for x in range(1, n)]
        # (1 2) and the n-cycle 1 -> 2 -> ... -> n -> 1 generate S_n
        generators = dict.fromkeys([points[1::-1] + points[2:],
                                    points[1:] + points[:1]])
        self.moves = [(tuple_getter(srcs), acts)
                      for srcs, acts in map(self._relabeling, generators)]
        self.node_budget = node_budget
        self.nodes = 0
        self.pruned = 0
        self.floor = 0

    def _relabeling(self, perm):
        """The action on vectors of candidate positions of renaming each
        point a of {1..n} to perm[a - 1]: (srcs, acts) with (g v)[j] =
        acts[j][v[srcs[j]]].

        The renaming moves the choice set on an r-subset A to A's image
        subsets[j], where subsets[srcs[j]] = A is the preimage of
        subsets[j], and reads its types in the order in which A's points
        land on subsets[j] (_BlockChecker.relabeled_set). Each order has
        one act list, shared by every subset and relabeling (self.acts).
        """
        inverse = {b: a for a, b in enumerate(perm, 1)}
        srcs, acts = [], []
        for B in self.subsets:
            A = tuple(sorted(inverse[b] for b in B))
            order = tuple(A.index(inverse[b]) + 1 for b in B)
            act = self.acts.get(order)
            if act is None:
                act = self.acts[order] = [
                    self.pos[self.checker.relabeled_set(order, cid)]
                    for _, cid in self.cands]
            srcs.append(self.index[A])
            acts.append(act)
        return srcs, acts

    def _orbit(self, leaf):
        """The S_n orbit of the position vector `leaf`, sorted: its closure
        under the relabelings (1 2) and (1 2 ... n) (self.moves, built by
        _relabeling). None as soon as it holds a vector below `leaf`, which
        then is not the orbit's lex-least element."""
        get = list.__getitem__
        moves = self.moves
        seen = {leaf}
        todo = [leaf]
        while todo:
            v = todo.pop()
            for gather, acts in moves:
                w = tuple(map(get, acts, gather(v)))
                if w not in seen:
                    if w < leaf:
                        return None
                    seen.add(w)
                    todo.append(w)
        return sorted(seen)

    def expand(self, leaf):
        """_orbit(leaf), counting each labeled leaf after the first as a
        node; BudgetExceeded when that passes the node budget."""
        orbit = self._orbit(leaf)
        if orbit:
            self.nodes += len(orbit) - 1
            if self.nodes > self.node_budget:
                raise BudgetExceeded("search node budget exhausted")
        return orbit

    def _fit(self, types):
        """The candidates whose types all lie in the type mask `types`."""
        out = self.fits.get(types)
        if out is None:
            masks = self.checker.set_masks
            out = self.fits[types] = sum(
                1 << pos for pos, (_, cid) in enumerate(self.cands)
                if not masks[cid] & ~types)
        return out

    def _block_mask(self, size, prefix):
        return self._fit(self.checker.allowed(size, prefix, self.type_mask))

    def _pair_mask(self, j, i, cid):
        signature, n = self.H.signature, self.n
        B, A = self.subsets[j], self.subsets[i]
        types = 0
        for t, q in enumerate(self.checker.types):
            if self.type_mask >> t & 1 and all(
                    located_agree(signature, n, B, p, A, q)
                    for p in self.sets[cid]):
                types |= 1 << t
        return self._fit(types)

    def template(self, leaf):
        """The template with the candidates at the positions `leaf` on
        self.subsets."""
        return Template(self.H, self.n, dict(zip(
            self.subsets, map(self.cand_sets.__getitem__, leaf))))

    def run(self, collect):
        """Generic DFS over the lex-least templates under relabeling of [n].

        collect(leaf, product): called for every DFS leaf in increasing
        order, with its candidate position vector (a tuple over
        self.subsets); it may raise self.floor and expand leaves (expand).
        Subtrees whose bound is below the floor are cut, so every leaf
        reached has product >= floor (the last step's bound is the product
        itself). Every leaf is error-free, so its product is sub(T): the
        error-pair masks checked every error partner, or no candidate type
        has a fact on fewer than r points.

        Relabeling the points keeps H-randomness and the product, so the
        DFS compares the vectors v and tau v of candidate positions for
        every point transposition tau = (x, x + 1) (see _relabeling),
        and refuses a candidate as soon as tau v < v, counted in
        `pruned`. Per transposition a pointer walks through the positions
        j it moves, in order, while v[j] and (tau v)[j] are both assigned
        and equal; it is saved and restored on backtrack, and it jumps to
        the end once tau v > v, for the subtree. A leaf reached passes these
        tests. The least vector of every orbit of H-random leaves at or
        above the floor is reached, first of its orbit: its product is the
        orbit's, and no tau v is below it.
        """
        cands, checks = self.cands, self.checks
        depth, width, budget = len(self.subsets), len(cands), self.node_budget
        caps = [self.max_card ** (depth - i - 1) for i in range(depth)]
        every = (1 << width) - 1
        cur = [None] * depth  # choice-set ids of subsets[0..i]
        at = [None] * depth  # their candidate positions
        # Per transposition: an entry (ready, j, src, act) for every j
        # whose subset it moves (from another subset, or in an order that
        # is not the identity), by increasing j, where ready = max(j, src)
        # is the step at which v[j] and (tau v)[j] = act[v[src]] are both
        # assigned; then a sentinel that is never ready. Its pointer is the
        # index of the next entry to compare.
        tables = [[(max(j, src), j, src, act)
                   for j, (src, act) in enumerate(zip(srcs, acts))
                   if src != j or act is not self.same]
                  + [(depth, 0, 0, None)]
                  for srcs, acts in self.transpositions]
        ends = [len(table) - 1 for table in tables]
        ptrs = [0] * len(tables)
        nodes, pruned = self.nodes, self.pruned

        def rec(i, product):
            nonlocal nodes, pruned
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("search node budget exhausted")
            if i == depth:
                self.nodes = nodes  # expand counts on self.nodes
                try:
                    collect(tuple(at), product)
                finally:
                    nodes = self.nodes
                return
            mask = every
            for memo, get, miss in checks[i]:
                key = get(cur)
                m = memo.get(key)
                if m is None:
                    m = memo[key] = miss(key)
                mask &= m
            # the transpositions with a comparison that step i makes ready
            active = [(t, p) for t, p in enumerate(ptrs)
                      if tables[t][p][0] == i]
            # Candidates are visited in list order. One that fails a check
            # is pruned; so is every candidate from the first one below the
            # bound on, since sizes never grow along cands. Only the
            # candidates in the mask are tested against the bound: the
            # floor moves only in a child, and a size below the bound at a
            # failed candidate is below it at the next one in the mask too.
            cap = caps[i]
            nxt = 0  # the position after the last candidate visited
            while mask:
                low = mask & -mask
                mask ^= low
                pos = low.bit_length() - 1
                size, cid = cands[pos]
                if product * size * cap < self.floor:
                    break
                pruned += pos - nxt
                nxt = pos + 1
                at[i] = pos
                for t, p in active:
                    table = tables[t]
                    ready, j, src, act = table[p]
                    while ready <= i:
                        a, b = at[j], act[at[src]]
                        if a != b:
                            break
                        p += 1
                        ready, j, src, act = table[p]
                    else:
                        ptrs[t] = p
                        continue
                    if a > b:  # tau v < v
                        pruned += 1
                        break
                    ptrs[t] = ends[t]  # tau v > v
                else:
                    cur[i] = cid
                    rec(i + 1, product * size)
            pruned += width - nxt
            for t, p in active:
                ptrs[t] = p

        try:
            rec(0, 1)
        finally:
            self.nodes, self.pruned = nodes, pruned


def _floor(best, frac):
    """The least v in [1, best] with v^b >= best^a, where frac = a/b is in
    [0, 1] and best >= 1: the test is monotone in v and holds at best, so
    bisect. A leaf reaches the floor exactly when its product p has
    p >= best^frac."""
    if frac == 1:
        return best
    a, b = frac.numerator, frac.denominator
    low, floor = 1, best
    while low < floor:
        mid = (low + floor) // 2
        if pow_geq(mid, b, best, a):
            floor = mid
        else:
            low = mid + 1
    return floor


def _search(H, n, frac, node_budget):
    """One DFS for the leaves whose product reaches best^frac, where best
    is the largest product of any leaf: the exact search at frac = 1, the
    near-extremal set at frac = 1 - epsilon.

    The floor follows the best product found so far (_floor), so it only
    rises. DFS leaves are stashed, and a flush, when DEFAULT_CAP are
    stashed and after the run, drops the kept leaves below the floor and
    expands the orbit of each stashed leaf at or above it that is its
    orbit's least (_SearchEngine.expand). The labeled leaves then pass
    in order through the cap rule: at most DEFAULT_CAP are kept, and
    when that many are, a leaf above the least kept product replaces the
    last one kept with it, so the kept leaves at best are the first ones
    found. `overflow` is the largest product of a leaf not kept (0 when
    every leaf was), so the kept leaves are all the leaves at the final
    floor unless overflow reaches it, and all the leaves at best unless
    overflow equals best. A leaf below the final floor never displaces one
    at or above it, so expanding late keeps the same leaves and flags as
    expanding each orbit when met. At frac = 1 the floor is the best
    product itself, the exact search's rule.

    Returns (report, found, leaves, truncated). found lists (Template,
    product) for the kept leaves at the final floor, by decreasing product
    and then by Template.canonical_key, read here from the candidates'
    sorted fact vectors; leaves holds (position vector, least vector of
    its orbit) in the same order. The report's ex is best, its maximizers
    are the leading templates of found at best, and its stats count this
    run; exact is False when the node budget ran out, and found holds the
    leaves flushed until then. truncated says whether found was cut at the
    cap.
    """
    if n < H.signature.r:
        raise InvalidArgument("n must be at least r")
    engine = _SearchEngine(H, n, node_budget)
    stash = []  # (position vector, product) per DFS leaf not yet flushed
    kept = {}  # product -> its kept orbits, each a list of labeled leaves
    best = overflow = count = 0

    def collect(leaf, value):
        nonlocal best
        if value > best:
            best = value
            engine.floor = _floor(best, frac)
        stash.append((leaf, value))
        if len(stash) == DEFAULT_CAP:
            flush()

    def flush():
        nonlocal overflow, count
        for low in [p for p in kept if p < engine.floor]:
            count -= sum(map(len, kept.pop(low)))
        for leaf, value in stash:
            orbit = engine.expand(leaf) if value >= engine.floor else None
            group = None
            for labeled in orbit or ():
                if count == DEFAULT_CAP:
                    low = min(kept)
                    overflow = max(overflow, min(value, low))
                    if value <= low:
                        break
                    orbits = kept[low]
                    orbits[-1].pop()
                    if not orbits[-1]:
                        orbits.pop()
                        if not orbits:
                            del kept[low]
                    count -= 1
                if group is None:
                    group = []
                    kept.setdefault(value, []).append(group)
                group.append(labeled)
                count += 1
        stash.clear()

    exact = True
    try:
        engine.run(collect)
        flush()
    except BudgetExceeded:
        exact = False
    # distinct candidates have distinct fact vectors, so ranking the
    # candidates by them keeps the order of the canonical keys
    facts = [tuple(sorted(p.facts for p in c)) for c in engine.cand_sets]
    ranked = {key: i for i, key in enumerate(sorted(facts))}
    rank = [ranked[key] for key in facts]
    rows = sorted(((value, labeled, orbit[0])
                   for value, orbits in kept.items() for orbit in orbits
                   for labeled in orbit),
                  key=lambda row: (-row[0], tuple(map(rank.__getitem__,
                                                      row[1]))))
    found = [(engine.template(leaf), value) for value, leaf, _ in rows]
    stats = {"nodes": engine.nodes, "pruned": engine.pruned}
    maximizers = [T for T, value in found if value == best]
    report = ExtremalReport(n, best, maximizers, H.signature.r, stats,
                            exact=exact, truncated=0 < best == overflow)
    return (report, found, [(leaf, least) for _, leaf, least in rows],
            0 < engine.floor <= overflow)


def search_extremal(H, n, node_budget=DEFAULT_NODE_BUDGET):
    """Exact maximization of sub over all H-random templates on {1..n}.

    Keeps at most DEFAULT_CAP maximizers (the report is then truncated)."""
    return _search(H, n, Fraction(1), node_budget)[0]


def density_sequence(H, n_max, node_budget=DEFAULT_NODE_BUDGET):
    """b_n for r <= n <= n_max with exact monotonicity verification."""
    r = H.signature.r
    if n_max < r:
        raise InvalidArgument("n_max must be at least r")
    reports = [search_extremal(H, n, node_budget) for n in range(r, n_max + 1)]
    for rep in reports:
        if not rep.exact:
            raise BudgetExceeded("density sequence incomplete", partial=reports)
    for a, b in zip(reports, reports[1:]):
        # b_n >= b_{n+1}  <=>  ex_n^C(n+1,r) >= ex_{n+1}^C(n,r)
        if not pow_geq(a.ex, math.comb(b.n, r), b.ex, math.comb(a.n, r)):
            raise AssertionError("density sequence not non-increasing")
        # ex(n) = 0 exactly when H_n is empty (the singleton template of
        # a member is H-random with sub 1), and H_n empty stays empty
        if a.ex == 0 and b.ex != 0:
            raise AssertionError("ex positive after ex = 0")
    return reports


def _near(H, n, epsilon, node_budget):
    """_search at frac = 1 - epsilon; BudgetExceeded unless it is exact."""
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise InvalidArgument("epsilon must be in [0,1]")
    run = _search(H, n, 1 - eps, node_budget)
    if not run[0].exact:
        raise BudgetExceeded("extremal search was not exact")
    return run


def near_extremal_set(H, n, epsilon):
    """All H-random templates with sub >= ex^(1-epsilon), plus the report.

    One search finds both (see _search): its floor follows the best product
    found so far, and the templates come by decreasing sub, then by
    canonical_key. The report's ex, maximizers and stats (nodes and prunes)
    are those of that one run. At most DEFAULT_CAP templates are kept,
    those of the largest subs first; the list is cut when a template at
    the final floor was not kept, and the report is truncated when one at
    ex was not. The search runs under DEFAULT_NODE_BUDGET."""
    report, found, _, _ = _near(H, n, epsilon, DEFAULT_NODE_BUDGET)
    return found, report


def stability_probe(H, n, epsilon, node_budget=DEFAULT_NODE_BUDGET):
    """worst_gap = max over near-extremal templates of their min distance
    to the extremal set (template distance, exact rational).

    The rows are near_extremal_set's templates, in its order, from the
    same single search, and `truncated` is its cap rule: when it holds,
    some near-extremal template (and maybe some maximizer) is missing, so
    worst_gap may be off. Gaps are read from the search's candidate
    position vectors: a vector is an int with one bit per (r-subset,
    candidate), so the number of r-subsets where two templates differ
    (distances.template_diff) is half the popcount of the XOR of their
    ints. One gap per orbit, at its least vector (always kept): relabeling
    moves a template and the maximizer set alike, and that set is closed
    under relabeling unless the cap cut it, and then every row is in it.
    `stats` counts the nodes and prunes of that search.
    """
    report, found, leaves, truncated = _near(H, n, epsilon, node_budget)
    width = 2 ** len(realized_type_space(H)) - 1  # the candidates
    total = math.comb(n, H.signature.r)
    offsets = range(0, total * width, width)

    def bits(leaf):
        return sum(map((1).__lshift__, map(add, offsets, leaf)))

    extremal = [bits(leaf)
                for leaf, _ in leaves[:len(report.extremal_templates)]]
    gaps = {}

    def gap(least):
        if least not in gaps:
            gaps[least] = Fraction(min(map(int.bit_count, map(
                bits(least).__xor__, extremal))) // 2, total)
        return gaps[least]

    rows = [(T, value, gap(least))
            for (T, value), (_, least) in zip(found, leaves)]
    return StabilityProbe(n, Fraction(epsilon), rows,
                          max(gaps.values(), default=Fraction(0)),
                          report.stats, truncated)


def e_membership(G, templates):
    """G lies in the E-set spanned by the given templates (full subpattern
    of at least one)."""
    return any(is_full_subpattern(G, T) for T in templates)


def e_delta_membership(G, templates, delta):
    """Constructive check that G is delta-close to a full subpattern of one
    of the given H-random templates (via the transfer construction)."""
    delta = Fraction(delta)
    for T in templates:
        C = template_from_structure(T.property, G)
        G2 = transfer_subpattern(C, G, T)
        if dist(G, G2) <= delta:
            return True
    return False
