"""Hereditary properties Forb(F): membership, labeled enumeration, closure.

A property is given by a finite forbidden family. Each entry is matched
either induced (isomorphism of an induced substructure, on the entry's own
signature, which may be a reduct of the property signature) or non-induced
(an injection carrying every positive fact of the entry into the structure).
The property-level mode is the default for entries that do not override it.
"""

import itertools

from .errors import BudgetExceeded, InvalidArgument
from .qftypes import qftp
from .structures import (Structure, embeds_noninduced, induced_substructure,
                         is_isomorphic)

INDUCED = "induced"
NON_INDUCED = "non-induced"

DEFAULT_ENUM_BUDGET = 10 ** 7


class ForbiddenEntry(object):
    """One forbidden structure with its matching mode."""

    __slots__ = ("structure", "match")

    def __init__(self, structure, match=None):
        if match not in (None, INDUCED, NON_INDUCED):
            raise InvalidArgument("unknown match mode %r" % match)
        self.structure = structure
        self.match = match

    def resolved_match(self, default):
        return self.match or default

    def __repr__(self):
        return "ForbiddenEntry(%r, %r)" % (self.structure, self.match)


class HereditaryProperty(object):
    """Forb(F) for a finite family F."""

    def __init__(self, signature, forbidden, mode=INDUCED, name=None):
        if mode not in (INDUCED, NON_INDUCED):
            raise InvalidArgument("unknown mode %r" % mode)
        entries = []
        for f in forbidden:
            if isinstance(f, Structure):
                f = ForbiddenEntry(f)
            if f.structure.n < 1:
                raise InvalidArgument("forbidden structures need size >= 1")
            if not f.structure.signature.is_reduct_of(signature):
                raise InvalidArgument("forbidden entry signature incompatible")
            entries.append(f)
        self.signature = signature
        self.forbidden = tuple(entries)
        self.mode = mode
        self.name = name
        self.k = max((f.structure.n for f in entries), default=0)
        self._member_cache = {}
        # Built on first use: see realized_type_space and block_checker.
        self._type_space = None
        self._checker = None

    def entry_matches(self, entry, M):
        """Does M contain the entry under its matching mode?"""
        F = entry.structure
        if entry.resolved_match(self.mode) == NON_INDUCED:
            return embeds_noninduced(F, M)
        if F.n > M.n:
            return False
        for A in itertools.combinations(M.domain(), F.n):
            sub = induced_substructure(M, A).reduct(F.signature)
            if is_isomorphic(sub, F):
                return True
        return False

    def __repr__(self):
        return "HereditaryProperty(%s, %d forbidden, mode=%s)" % (
            self.name or repr(self.signature), len(self.forbidden), self.mode)


def is_member(H, M):
    """M is in Forb(F): no forbidden entry matches."""
    if not (M.signature == H.signature):
        raise InvalidArgument("signature mismatch")
    key = M._key
    cached = H._member_cache.get(key)
    if cached is not None:
        return cached
    ok = not any(H.entry_matches(f, M) for f in H.forbidden)
    if len(H._member_cache) < 500000:
        H._member_cache[key] = ok
    return ok


def _groups(signature, n):
    """Atoms grouped by the exact set of domain points they touch.

    Groups are ordered colexicographically over subsets of {1..n}, so every
    proper subset of a group's point set is processed before it.
    """
    group_map = {}
    for name, arity in signature.relations:
        for t in itertools.product(range(1, n + 1), repeat=arity):
            group_map.setdefault(frozenset(t), []).append((name, t))
    subsets = []
    for m in range(1, n + 1):
        for S in itertools.combinations(range(1, n + 1), m):
            subsets.append(S)
    subsets.sort(key=lambda S: tuple(reversed(S)))
    return [(S, sorted(group_map.get(frozenset(S), []))) for S in subsets]


def enumerate_members(H, n, budget=DEFAULT_ENUM_BUDGET):
    """Stream every labeled member on {1..n} exactly once, deterministically.

    Depth-first over fact groups (one group per point subset, colex order).
    After completing the group on S, forbidden entries of size |S| are
    checked against M[S]; non-induced entries are additionally pruned as
    soon as all their positive facts appear. Budget counts DFS nodes.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    groups = _groups(H.signature, n)
    sizes = set(f.structure.n for f in H.forbidden)
    counter = [0]
    check_cache = {}

    def check_new_subset(rels, S):
        if len(S) not in sizes:
            return True
        pos = {a: i + 1 for i, a in enumerate(S)}
        inside = set(S)
        sub_rels = {name: [tuple(pos[x] for x in t) for t in ts
                           if inside.issuperset(t)]
                    for name, ts in rels.items()}
        sub = Structure(H.signature, len(S), sub_rels)
        cached = check_cache.get(sub._key)
        if cached is not None:
            return cached
        ok = not any(f.structure.n == len(S) and H.entry_matches(f, sub)
                     for f in H.forbidden)
        check_cache[sub._key] = ok
        return ok

    def rec(gi, rels):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded("enumeration budget exhausted at n=%d" % n)
        if gi == len(groups):
            yield Structure(H.signature, n, rels)
            return
        S, facts = groups[gi]
        for mask in range(1 << len(facts)):
            chosen = [facts[i] for i in range(len(facts)) if (mask >> i) & 1]
            new_rels = dict(rels)
            for name, t in chosen:
                new_rels[name] = new_rels.get(name, ()) + (t,)
            if not check_new_subset(new_rels, S):
                continue
            yield from rec(gi + 1, new_rels)

    yield from rec(0, {})


def count_members(H, n, budget=DEFAULT_ENUM_BUDGET):
    """|H_n| as an exact integer."""
    return sum(1 for _ in enumerate_members(H, n, budget))


def realized_type_space(H):
    """S_r(H): types whose r-point realizing structure is a member.

    Computed by enumerating the r-point members; valid because the property
    is hereditary by construction. Every r-point member, including ones with
    repeated-entry facts, contributes the type of its identity enumeration.
    The enumeration runs once per property; every call returns a new list.
    """
    if H._type_space is None:
        r = H.signature.r
        H._type_space = tuple(sorted({qftp(M, tuple(range(1, r + 1)))
                                      for M in enumerate_members(H, r)}))
    return list(H._type_space)


def closure(H, K, budget=DEFAULT_ENUM_BUDGET):
    """cl_K(F): size-K non-members, one representative per isomorphism class.

    Enumerates the raw labeled fact space of size-K structures, so it is
    budget-guarded; tractable for binary signatures at desk scale.
    """
    if K < H.k:
        raise InvalidArgument("K must be at least the max forbidden size")
    facts = []
    for name, arity in H.signature.relations:
        facts.extend((name, t) for t in
                     itertools.product(range(1, K + 1), repeat=arity))
    if 1 << len(facts) > budget:
        raise BudgetExceeded(
            "closure space 2^%d exceeds budget" % len(facts))
    reps = []
    for mask in range(1 << len(facts)):
        rels = {}
        for i, (name, t) in enumerate(facts):
            if (mask >> i) & 1:
                rels.setdefault(name, []).append(t)
        M = Structure(H.signature, K, rels)
        if is_member(H, M):
            continue
        if not any(is_isomorphic(M, rep) for rep in reps):
            reps.append(M)
    return reps


def is_trivial_up_to(H, n_max):
    """True when some H_n is empty for n <= n_max (triviality at this scale)."""
    for n in range(1, n_max + 1):
        if next(iter(enumerate_members(H, n)), None) is None:
            return True
    return False
