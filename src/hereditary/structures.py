"""Finite relational signatures, labeled structures, isomorphism, copy counting.

Domains are always {1..n}. Structures are immutable and hashable; all
operations are pure functions.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

from .errors import InvalidArgument


class Signature(object):
    """An ordered list of relation symbols with arities; r is the max arity."""

    __slots__ = ("relations", "arities", "r", "_hash")

    def __init__(self, relations):
        relations = tuple((str(name), int(arity)) for name, arity in relations)
        if not relations:
            raise InvalidArgument("signature needs at least one relation")
        names = [name for name, _ in relations]
        if len(set(names)) != len(names):
            raise InvalidArgument("relation names must be unique")
        if any(arity < 1 for _, arity in relations):
            raise InvalidArgument("arities must be >= 1")
        self.relations = relations
        self.arities = dict(relations)
        self.r = max(arity for _, arity in relations)
        self._hash = hash(relations)

    def arity(self, name):
        try:
            return self.arities[name]
        except KeyError:
            raise InvalidArgument("unknown relation %r" % name)

    def names(self):
        return [name for name, _ in self.relations]

    def __eq__(self, other):
        return isinstance(other, Signature) and self.relations == other.relations

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Signature(%s)" % (", ".join("%s/%d" % rel for rel in self.relations))

    def is_reduct_of(self, other):
        """True when every relation here appears in `other` with equal arity."""
        return all(other.arities.get(name) == ar for name, ar in self.relations)


class Structure(object):
    """A labeled structure on domain {1..n} with explicit tuple sets.

    Tuples with repeated entries are representable; relation tuple sets are
    frozen on construction.
    """

    def __init__(self, signature, n, relations=None):
        if n < 0:
            raise InvalidArgument("n must be >= 0")
        self.signature = signature
        self.n = n
        rels = {}
        relations = relations or {}
        for name in relations:
            if name not in signature.arities:
                raise InvalidArgument("relation %r not in signature" % name)
        for name, arity in signature.relations:
            tuples = frozenset(tuple(int(x) for x in t) for t in relations.get(name, ()))
            for t in tuples:
                if len(t) != arity:
                    raise InvalidArgument(
                        "tuple %r has wrong arity for %s/%d" % (t, name, arity))
                if any(x < 1 or x > n for x in t):
                    raise InvalidArgument("tuple %r out of domain 1..%d" % (t, n))
            rels[name] = tuples
        self.relations = rels
        self._key = (signature, n, tuple(sorted(
            (name, tuple(sorted(rels[name]))) for name in rels)))

    def domain(self):
        return range(1, self.n + 1)

    def has_fact(self, name, tup):
        return tuple(tup) in self.relations[name]

    def facts(self):
        """All (relation name, tuple) facts, deterministically ordered."""
        for name, _ in self.signature.relations:
            for t in sorted(self.relations[name]):
                yield name, t

    def fact_count(self):
        return sum(len(ts) for ts in self.relations.values())

    def reduct(self, signature):
        """The structure over a sub-signature, dropping other relations."""
        if not signature.is_reduct_of(self.signature):
            raise InvalidArgument("not a reduct signature")
        return Structure(signature, self.n,
                         {name: self.relations[name] for name, _ in signature.relations})

    def __eq__(self, other):
        return isinstance(other, Structure) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = {name: sorted(ts) for name, ts in self.relations.items() if ts}
        return "Structure(n=%d, %r)" % (self.n, shown)


def induced_substructure(M, A):
    """M[A], relabeled onto {1..|A|} via the order-preserving bijection."""
    A = sorted(set(A))
    if not A:
        raise InvalidArgument("A must be nonempty")
    if A[0] < 1 or A[-1] > M.n:
        raise InvalidArgument("A out of domain")
    inside = set(A)
    pos = {a: i + 1 for i, a in enumerate(A)}
    rels = {}
    for name, ts in M.relations.items():
        rels[name] = [tuple(pos[x] for x in t) for t in ts
                      if inside.issuperset(t)]
    return Structure(M.signature, len(A), rels)


def structure_from_mask(signature, n, facts, mask):
    """The structure on {1..n} holding facts[i] for every set bit i of mask."""
    rels = {}
    while mask:
        low = mask & -mask
        name, t = facts[low.bit_length() - 1]
        rels.setdefault(name, []).append(t)
        mask ^= low
    return Structure(signature, n, rels)


class FactAction(object):
    """The action of the n! permutations of {1..n} on fact masks, in columns.

    A mask is a set of facts on {1..n}: bit i stands for facts[i], a list
    of (relation, tuple) closed under relabeling. column(i) holds the image
    bit of facts[i] under every permutation, in itertools.permutations
    order, and is built the first time fact i is read, so a caller that
    reads few facts builds few columns. A permutation maps distinct facts
    to distinct facts, so the image of a mask under it is the sum of its
    facts' image bits, and orbit sums the columns of the set bits row by
    row.
    """

    def __init__(self, n, facts):
        self.n = n
        self.size = factorial(n)  # the number of permutations
        self.facts = facts
        self.bits = {f: 1 << i for i, f in enumerate(facts)}
        self.columns = [None] * len(facts)
        self._points = None

    def column(self, i):
        """The image bit of facts[i] under every permutation."""
        col = self.columns[i]
        if col is None:
            if self._points is None:
                # _points[x - 1]: the image of x under every permutation,
                # listed on first read, so an action nobody reads (an
                # uncompiled copy table on 7+ points) lists none
                self._points = list(zip(*itertools.permutations(
                    range(1, self.n + 1))))
            name, t = self.facts[i]
            images = zip(itertools.repeat(name),
                         zip(*(self._points[x - 1] for x in t)))
            col = self.columns[i] = tuple(map(self.bits.__getitem__, images))
        return col

    def orbit(self, mask):
        """The set of the distinct images of mask."""
        columns, cols = self.columns, []
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            cols.append(columns[i] or self.column(i))
            mask ^= low
        if not cols:
            return {0}
        return set(map(sum, zip(*cols)))


def class_key(action, mask):
    """(key, orbit) of a mask's isomorphism class under a FactAction.

    Two masks are isomorphic when a permutation of {1..n} maps one onto the
    other, so the least mask over the n! relabelings is a key of the class.
    The orbit is the number of distinct masks among them, n!/|Aut|.
    """
    seen = action.orbit(mask)
    return min(seen), len(seen)


def first_of_classes(n, facts, masks):
    """The masks, in the given order, that come first in their isomorphism
    class (see class_key)."""
    action = FactAction(n, facts)
    seen, out = set(), []
    for mask in masks:
        key = class_key(action, mask)[0]
        if key not in seen:
            seen.add(key)
            out.append(mask)
    return out


def _incidence_profile(M, v):
    # Per-vertex invariant used to prune isomorphism search: for each
    # relation, the multiset of position sets at which v occurs in its tuples.
    profile = []
    for name, _ in M.signature.relations:
        counts = {}
        for t in M.relations[name]:
            positions = tuple(sorted(i for i, x in enumerate(t) if x == v))
            if positions:
                counts[positions] = counts.get(positions, 0) + 1
        profile.append(tuple(sorted(counts.items())))
    return tuple(profile)


def is_isomorphic(M, N, witness=False):
    """Backtracking isomorphism test with invariant pruning.

    Returns a boolean, or (boolean, mapping-or-None) when witness=True.
    """
    if M.signature != N.signature:
        raise InvalidArgument("signature mismatch")

    def result(ok, mapping):
        return (ok, mapping) if witness else ok

    for name in M.relations:
        if len(M.relations[name]) != len(N.relations[name]):
            return result(False, None)
    if M.n != N.n:
        return result(False, None)

    prof_M = {v: _incidence_profile(M, v) for v in M.domain()}
    prof_N = {v: _incidence_profile(N, v) for v in N.domain()}
    if sorted(prof_M.values()) != sorted(prof_N.values()):
        return result(False, None)
    candidates = {v: [w for w in N.domain() if prof_N[w] == prof_M[v]]
                  for v in M.domain()}
    order = sorted(M.domain(), key=lambda v: len(candidates[v]))
    mapping = {}
    used = set()

    def consistent(v, w):
        # every fact fully inside the assigned part must transfer both ways
        assigned = set(mapping) | {v}
        for name, ts in M.relations.items():
            Nts = N.relations[name]
            for t in ts:
                if assigned.issuperset(t):
                    img = tuple(mapping.get(x, w) for x in t)
                    if img not in Nts:
                        return False
        assigned_img = set(mapping.values()) | {w}
        inv = {b: a for a, b in mapping.items()}
        inv[w] = v
        for name, ts in N.relations.items():
            Mts = M.relations[name]
            for t in ts:
                if assigned_img.issuperset(t):
                    pre = tuple(inv[x] for x in t)
                    if pre not in Mts:
                        return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                if backtrack(i + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    ok = backtrack(0)
    return result(ok, dict(mapping) if ok else None)


def embeds_noninduced(B, M):
    """True when an injection maps every fact of B onto a fact of M.

    Negative information in B is ignored; B's signature may be a reduct of
    M's.
    """
    if not B.signature.is_reduct_of(M.signature):
        raise InvalidArgument("signature mismatch")
    if B.n > M.n:
        return False
    vertices = list(B.domain())
    # order by decreasing fact incidence so constrained vertices map first
    inc = {v: 0 for v in vertices}
    for name, ts in B.relations.items():
        for t in ts:
            for x in set(t):
                inc[x] += 1
    vertices.sort(key=lambda v: -inc[v])
    mapping = {}
    used = set()

    def feasible(v, w):
        assigned = set(mapping) | {v}
        for name, ts in B.relations.items():
            Mts = M.relations[name]
            for t in ts:
                if assigned.issuperset(t):
                    if tuple(mapping.get(x, w) for x in t) not in Mts:
                        return False
        return True

    def backtrack(i):
        if i == len(vertices):
            return True
        v = vertices[i]
        for w in M.domain():
            if w in used:
                continue
            if feasible(v, w):
                mapping[v] = w
                used.add(w)
                if backtrack(i + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return backtrack(0)


def copies(B, M):
    """cop(B,M): all A ⊆ dom(M) with M[A] isomorphic to B."""
    if B.signature != M.signature:
        raise InvalidArgument("signature mismatch")
    if B.n > M.n:
        return []
    found = []
    for A in itertools.combinations(M.domain(), B.n):
        if is_isomorphic(induced_substructure(M, A), B):
            found.append(frozenset(A))
    return found


def density(B, M):
    """prob(B,M) = |cop(B,M)| / C(|M|,|B|), exact."""
    if B.n > M.n:
        return Fraction(0)
    return Fraction(len(copies(B, M)), comb(M.n, B.n))

