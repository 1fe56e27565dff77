"""Hereditary properties Forb(F): membership, labeled enumeration, closure.

A property is given by a finite forbidden family. Each entry is matched
either induced (isomorphism of an induced substructure, on the entry's own
signature, which may be a reduct of the property signature) or non-induced
(an injection carrying every positive fact of the entry into the structure).
The property-level mode is the default for entries that do not override it.

The family is compiled into copy tables (see copy_table), one per entry
size m, each built the first time a structure or subset of m points is
checked: the fact masks of every relabeling of every size-m entry on
{1..m}. Membership and enumeration then look each m-point subset up in the
table for m. HereditaryProperty.entry_matches keeps the direct definition,
matching one entry by isomorphism or embedding search; it is the
independent path the tests compare against, and it matches the entries too
large to compile (more than COPY_LIMIT relabelings).
"""

import itertools
import math

from .errors import BudgetExceeded, InvalidArgument
from .qftypes import qftp
from .structures import (Structure, embeds_noninduced, induced_substructure,
                         is_isomorphic)

INDUCED = "induced"
NON_INDUCED = "non-induced"

DEFAULT_ENUM_BUDGET = 10 ** 7
# Most relabelings compiled per entry: entries on up to 6 points. A larger
# entry would cost m! masks (40320 at 8 points) to build and to scan.
COPY_LIMIT = 720


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
        # Built on first use: see realized_type_space, block_checker and
        # copy_table (one slot per entry size, ascending).
        self._type_space = None
        self._checker = None
        self._copy_tables = dict.fromkeys(sorted({f.structure.n
                                                  for f in entries}))

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


def _fact_mask(M, A):
    """M[A], relabeled order-preservingly onto {1..|A|}, as a bit mask.

    Bit i is the i-th fact on {1..|A|}: relations in signature order, each
    relation's tuples in lexicographic order (the order of _fact_index).
    """
    mask, bit = 0, 1
    for name, arity in M.signature.relations:
        tuples = M.relations[name]
        for t in itertools.product(A, repeat=arity):
            if t in tuples:
                mask |= bit
            bit <<= 1
    return mask


def _fact_index(signature, m):
    """The bit of every fact on {1..m}, in _fact_mask order."""
    facts = [(name, t) for name, arity in signature.relations
             for t in itertools.product(range(1, m + 1), repeat=arity)]
    return {fact: i for i, fact in enumerate(facts)}


def copy_table(H, m):
    """The labeled-copy table of the size-m entries, built on first use.

    A triple (induced, non_induced, direct). A copy is the fact mask of one
    of the m! relabelings of an entry. `induced` pairs the mask of an entry
    signature's relations with the copies of the induced entries on that
    signature; `non_induced` holds the copies of the non-induced entries.
    Entries with more than COPY_LIMIT relabelings (more than 6 points) are
    not compiled: `direct` holds them, for HereditaryProperty.entry_matches.
    """
    table = H._copy_tables[m]
    if table is None:
        induced, non_induced, direct = {}, set(), []
        index = _fact_index(H.signature, m)
        for f in H.forbidden:
            F = f.structure
            if F.n != m:
                continue
            if math.factorial(m) > COPY_LIMIT:
                direct.append(f)
                continue
            copies = {sum(1 << index[(name, tuple(perm[x - 1] for x in t))]
                          for name, t in F.facts())
                      for perm in itertools.permutations(range(1, m + 1))}
            if f.resolved_match(H.mode) == NON_INDUCED:
                non_induced |= copies
            else:
                names = set(F.signature.names())
                relmask = sum(1 << i for (name, _), i in index.items()
                              if name in names)
                induced.setdefault(relmask, set()).update(copies)
        table = H._copy_tables[m] = (
            tuple((relmask, frozenset(copies))
                  for relmask, copies in induced.items()),
            tuple(sorted(non_induced)), tuple(direct))
    return table


def _matches(table, x):
    """Does the structure with fact mask x contain a compiled copy?"""
    induced, non_induced, _ = table
    for relmask, copies in induced:
        if (x & relmask) in copies:
            return True
    outside = ~x
    return any(not c & outside for c in non_induced)


def _structure(signature, n, facts, mask):
    """The structure on {1..n} holding facts[i] for every set bit i of mask."""
    rels = {}
    while mask:
        low = mask & -mask
        name, t = facts[low.bit_length() - 1]
        rels.setdefault(name, []).append(t)
        mask ^= low
    return Structure(signature, n, rels)


def is_member(H, M):
    """M is in Forb(F): no m-subset of M holds a copy of a size-m entry.

    Each m-subset A is relabeled onto {1..m} and looked up in the copy
    table for m: induced entries match when M[A], restricted to the entry's
    relations, is one of their copies; non-induced entries match when one
    of their copies is a subset of M[A]'s facts. Entries too large to
    compile are matched on M by entry_matches.
    """
    if not (M.signature == H.signature):
        raise InvalidArgument("signature mismatch")
    key = M._key
    cached = H._member_cache.get(key)
    if cached is not None:
        return cached
    ok = True
    for m in H._copy_tables:
        if m > M.n:
            continue
        table = copy_table(H, m)
        compiled = table[0] or table[1]
        if (compiled and any(_matches(table, _fact_mask(M, A))
                             for A in itertools.combinations(M.domain(), m))
                or any(H.entry_matches(f, M) for f in table[2])):
            ok = False
            break
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

    Depth-first over fact groups (one group per point subset, colex order);
    the chosen facts are one bit mask over the groups' facts. After the
    group on S is chosen, M[S] is complete: its fact mask on {1..|S|} is
    gathered bit by bit from the groups inside S and looked up in the copy
    table for |S| (see is_member). Budget counts DFS nodes.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    groups = _groups(H.signature, n)
    offsets, facts = {}, []
    for S, group in groups:
        offsets[S] = len(facts)
        facts.extend(group)
    plan = []
    for S, group in groups:
        check = None
        if len(S) in H._copy_tables:
            index = _fact_index(H.signature, len(S))
            local = {(name, tuple(S[x - 1] for x in t)): 1 << i
                     for (name, t), i in index.items()}
            # (global bit, local bit) for the facts of the groups inside S,
            # then (bit in the group's choice, local bit) for its own facts
            inner = [(1 << offsets[T] + j, local[f]) for T, facts_T in groups
                     if T != S and set(T) <= set(S)
                     for j, f in enumerate(facts_T)]
            own = [(1 << j, local[f]) for j, f in enumerate(group)]
            check = (inner, own, copy_table(H, len(S)), len(S), list(index))
        plan.append((offsets[S], len(group), check))
    counter = [0]

    def rec(gi, chosen):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded("enumeration budget exhausted at n=%d" % n)
        if gi == len(plan):
            yield _structure(H.signature, n, facts, chosen)
            return
        offset, width, check = plan[gi]
        if check is None:
            for c in range(1 << width):
                yield from rec(gi + 1, chosen | c << offset)
            return
        inner, own, table, m, local_facts = check
        base = 0
        for g, bit in inner:
            if chosen & g:
                base |= bit
        for c in range(1 << width):
            x = base
            for g, bit in own:
                if c & g:
                    x |= bit
            if _matches(table, x):
                continue
            if table[2]:
                sub = _structure(H.signature, m, local_facts, x)
                if any(H.entry_matches(f, sub) for f in table[2]):
                    continue
            yield from rec(gi + 1, chosen | c << offset)

    yield from rec(0, 0)


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
