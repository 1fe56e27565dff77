"""Brute-force reference searches that the tests compare the package with.

The package answers each question through one search: membership in
Forb(F), ex(n) over H-random templates, and the containers hypergraph.
These are second, independent paths, kept here as oracles:

- digraphs: maximize 2^f1 * 3^f2 over digraphs with no T_{k+1}
  subdigraph, pair state by pair state (reduced_search);
- metric: a product search over complete set-graphs with no template
  machinery (restricted_search), and the (3,3a)/(3,3a+1) multigraph
  product bounds (check_multigraph_bound);
- colored: a brute force over set-colorings, directly on colorings
  (max_product, max_density_log2);
- templates: every choice function and its merge (choice_functions,
  subpattern_of_choice), H-randomness by its definition on the merges of
  every choice function (is_h_random_direct), and the geometric-mean
  identity of sub counts (geometric_mean_identity_gap);
- properties: the induced entries a universe entry stands for, one per
  isomorphism class of the fact sets it does not allow
  (universe_bad_classes, expanded), and copy tables read back in that
  form (dissolved).
"""

import itertools
import math
from functools import lru_cache
from math import comb

from hereditary.diagrams import LocatedType, merge_entries
from hereditary.errors import BudgetExceeded, InvalidArgument
from hereditary.instances.metric import triangle_ok
from hereditary.properties import (DEFAULT_ENUM_BUDGET, INDUCED,
                                   ForbiddenEntry, UniverseEntry,
                                   mask_is_member)
from hereditary.structures import first_of_classes, structure_from_mask
from hereditary.templates import (_merges, _require_complete, choice_count,
                                  restrict, sub_count)


# ---------- digraphs: T_{k+1}-free digraphs ----------

def has_transitive_subtournament(arcs, n, size):
    """Does the digraph contain T_size as a subdigraph?"""
    for combo in itertools.permutations(range(1, n + 1), size):
        if all((combo[i], combo[j]) in arcs
               for i in range(size) for j in range(i + 1, size)):
            return True
    return False


def reduced_search(k, n):
    """Downward-closure reduction: maximize 2^f1 * 3^f2 over digraphs with
    no T_{k+1} subdigraph, by direct enumeration of pair states.

    Returns (max value, list of maximizer arc sets).
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    best = [0]
    winners = []
    states = [((), 1), (((0, 1),), 2), (((1, 0),), 2), (((0, 1), (1, 0)), 3)]

    def rec(i, arcs, product):
        if product * 3 ** (len(pairs) - i) < best[0]:
            return
        if i == len(pairs):
            if product > best[0]:
                best[0] = product
                winners.clear()
            if product == best[0]:
                winners.append(frozenset(arcs))
            return
        u, v = pairs[i]
        for arcpat, weight in states:
            new_arcs = set(arcs)
            for a, b in arcpat:
                new_arcs.add((u, v) if (a, b) == (0, 1) else (v, u))
            if not has_transitive_subtournament(new_arcs, n, k + 1):
                rec(i + 1, new_arcs, product * weight)

    rec(0, set(), 1)
    return best[0], winners


# ---------- metric: distances in {1..r} ----------

@lru_cache(maxsize=None)
def _compatible_triple_table(r):
    """For candidate distance sets A,B,C: every cross choice metric."""
    sets = [frozenset(c) for size in range(r, 0, -1)
            for c in itertools.combinations(range(1, r + 1), size)]
    table = {}
    for A in sets:
        for B in sets:
            for C in sets:
                table[(A, B, C)] = all(
                    triangle_ok(a, b, c) for a in A for b in B for c in C)
    return sets, table


def restricted_search(r, n):
    """Independent product search over complete set-graphs.

    Returns (max product, list of maximizer set-graphs). No template
    machinery is involved; serves as the oracle cross-check and as the
    restricted path for larger r.
    """
    sets, table = _compatible_triple_table(r)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    pair_index = {A: i for i, A in enumerate(pairs)}
    triangles = []
    for i, A in enumerate(pairs):
        tri = []
        for x, y, z in itertools.combinations(range(1, n + 1), 3):
            e1, e2, e3 = (x, y), (x, z), (y, z)
            if max(pair_index[e] for e in (e1, e2, e3)) == i:
                tri.append((pair_index[e1], pair_index[e2], pair_index[e3]))
        triangles.append(tri)
    best = [0]
    winners = []
    assignment = [None] * len(pairs)

    def rec(i, product):
        if i == len(pairs):
            if product > best[0]:
                best[0] = product
                winners.clear()
            if product == best[0]:
                winners.append({A: assignment[j] for j, A in enumerate(pairs)})
            return
        for S in sets:
            bound = product * len(S) * (r ** (len(pairs) - i - 1))
            if bound < best[0]:
                continue
            assignment[i] = S
            if all(table[(assignment[a], assignment[b], assignment[c])]
                   for (a, b, c) in triangles[i]):
                rec(i + 1, product * len(S))
        assignment[i] = None

    rec(0, 1)
    return best[0], winners


def check_multigraph_bound(weights, n, a):
    """Classify a multigraph as a (3,3a)- or (3,3a+1)-graph and check the
    corresponding product bound, with equality-case membership."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    w = {tuple(sorted(A)): weights[tuple(sorted(A))] for A in pairs}
    max_triple = max(w[(x, y)] + w[(x, z)] + w[(y, z)]
                     for x, y, z in itertools.combinations(range(1, n + 1), 3))
    product = 1
    for A in pairs:
        product *= w[A]
    report = {"product": product, "max_triple_sum": max_triple}
    if max_triple <= 3 * a:
        bound = a ** len(pairs)
        report.update(kind="(3,%d)" % (3 * a), bound=bound,
                      holds=product <= bound,
                      equality_case=all(w[A] == a for A in pairs))
    elif max_triple <= 3 * a + 1:
        bound = a ** len(pairs) * (a + 1) ** (n // 2) // a ** (n // 2)
        matched = is_u2(w, n, a)
        report.update(kind="(3,%d)" % (3 * a + 1), bound=bound,
                      holds=product <= bound, equality_case=matched)
    else:
        report.update(kind="neither", bound=None, holds=None,
                      equality_case=False)
    return report


def is_u2(w, n, a):
    """Weights a everywhere except a+1 on a maximum matching."""
    heavy = [A for A in w if w[A] == a + 1]
    if any(w[A] not in (a, a + 1) for A in w):
        return False
    if len(heavy) != n // 2:
        return False
    used = set()
    for x, y in heavy:
        if x in used or y in used:
            return False
        used.update((x, y))
    return True


# ---------- colored: set-colorings ----------

def _contains_forbidden(coloring, n, k, forbidden_colorings):
    for m, pattern in forbidden_colorings:
        if m > n:
            continue
        for image in itertools.permutations(range(1, n + 1), m):
            ok = True
            for e, c in pattern.items():
                mapped = tuple(sorted(image[x - 1] for x in e))
                if coloring[mapped] != c:
                    ok = False
                    break
            if ok:
                return True
    return False


def max_product(k, colors, forbidden_colorings, n):
    """Brute force over good set-colorings: maximize the product of the
    per-subset color-set sizes. A set-coloring is good when every selection
    of one color per subset avoids the forbidden colorings.

    Independent of the template machinery.
    """
    subsets = list(itertools.combinations(range(1, n + 1), k))
    options = [tuple(c) for size in range(len(colors), 0, -1)
               for c in itertools.combinations(colors, size)]
    best = [0]
    winners = []

    def good(assignment):
        pools = [assignment[A] for A in subsets]
        for combo in itertools.product(*pools):
            coloring = dict(zip(subsets, combo))
            if _contains_forbidden(coloring, n, k, forbidden_colorings):
                return False
        return True

    for combo in itertools.product(options, repeat=len(subsets)):
        assignment = dict(zip(subsets, combo))
        product = 1
        for cs in combo:
            product *= len(cs)
        if product < best[0]:
            continue
        if good(assignment):
            if product > best[0]:
                best[0] = product
                winners.clear()
            if product == best[0]:
                winners.append(assignment)
    return best[0], winners


def max_density_log2(k, colors, forbidden_colorings, n):
    """max(n,P) as an exact rational when the max product is a power of 2."""
    from fractions import Fraction
    value, _ = max_product(k, colors, forbidden_colorings, n)
    exponent = value.bit_length() - 1
    if value != 1 << exponent:
        raise InvalidArgument("max product is not a power of two; "
                              "report the product itself instead")
    return Fraction(exponent, comb(n, k))


# ---------- templates: choice functions ----------

def choice_functions(T):
    """All choice functions, lexicographic in (colex subset, type order)."""
    _require_complete(T)
    pools = [sorted(T.choices[A]) for A in T.subsets]
    for combo in itertools.product(*pools):
        yield dict(zip(T.subsets, combo))


def subpattern_of_choice(T, chi):
    """Merge the located choices of chi; None when unsatisfiable."""
    entries = [LocatedType(A, p) for A, p in chi.items()]
    return merge_entries(entries, n=T.n, signature=T.property.signature)


_mask_is_member = lru_cache(maxsize=1 << 16)(mask_is_member)


def is_h_random_direct(T):
    """Direct-definition oracle: every choice function merges to a member.
    Each merge is checked with properties.mask_is_member, memoized by mask
    since templates share them."""
    merges = _merges(T)
    return len(merges) == choice_count(T) and all(
        _mask_is_member(T.property, T.n, t) for t in merges)


def geometric_mean_identity_gap(T):
    """|log sub(T) - (1/(n-r)) sum_a log sub(T minus a)| for error-free T."""
    n = T.n
    r = T.property.signature.r
    if n <= r:
        raise InvalidArgument("need n > r")
    s, error_free = sub_count(T)
    if not error_free:
        raise InvalidArgument("identity only asserted for error-free templates")
    total = 0.0
    for a in range(1, n + 1):
        rest = [x for x in range(1, n + 1) if x != a]
        sa, _ = sub_count(restrict(T, rest))
        total += math.log(sa)
    return abs(math.log(s) - total / (n - r))


# ---------- properties: universe entries as induced entries ----------

def universe_bad_classes(signature, allowed):
    """The induced entries on r points that forbid every loop-free fact
    set outside `allowed`: one per isomorphism class of those sets, the
    first in mask order (see first_of_classes). They are walked over every
    fact set on r points, so BudgetExceeded is raised when there are more
    than DEFAULT_ENUM_BUDGET of them."""
    r = signature.r
    facts = [(name, t) for name, _ in signature.relations
             for t in itertools.permutations(range(1, r + 1))]
    if 1 << len(facts) > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(
            "universe space 2^%d exceeds budget" % len(facts))
    bit = {fact: 1 << i for i, fact in enumerate(facts)}
    good = {sum(bit[fact] for fact in S) for S in allowed}
    bad = [mask for mask in range(1 << len(facts)) if mask not in good]
    return [
        ForbiddenEntry(structure_from_mask(signature, r, facts, mask), INDUCED)
        for mask in first_of_classes(r, facts, bad)]


def expanded(entries):
    """The entries, each UniverseEntry replaced by its bad classes."""
    out = []
    for f in entries:
        if isinstance(f, UniverseEntry):
            out.extend(universe_bad_classes(f.signature, f.allowed))
        else:
            out.append(f)
    return out


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def dissolved(table):
    """A copy table (properties.copy_table) as (induced, non_induced,
    direct) alone: each compiled universe (relmask, loops, good) becomes
    the induced copies it forbids, the masks within relmask that hold no
    loop fact and are not good, ahead of the other induced copies; each
    uncompiled UniverseEntry is expanded. More than 2^20 loop-free masks
    raise BudgetExceeded, as in universe_bad_classes."""
    induced, non_induced, direct, universe = table
    merged = {}
    for relmask, loops, good in universe:
        if bin(relmask & ~loops).count("1") > 20:
            raise BudgetExceeded("dissolved universe exceeds 2^20 masks")
        merged.setdefault(relmask, set()).update(
            y for y in _submasks(relmask & ~loops) if y not in good)
    for relmask, copies in induced:
        merged.setdefault(relmask, set()).update(copies)
    return (tuple((relmask, frozenset(copies))
                  for relmask, copies in merged.items()),
            non_induced, tuple(expanded(direct)))
