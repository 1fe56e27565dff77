"""Hereditary properties Forb(F): membership, labeled enumeration, counting
over isomorphism classes, closure.

A property is given by a finite forbidden family. Each entry is matched
either induced (isomorphism of an induced substructure, on the entry's own
signature, which may be a reduct of the property signature) or non-induced
(an injection carrying every positive fact of the entry into the structure).
The property-level mode is the default for entries that do not override it.
A universe entry (UniverseEntry) declares the loop-free fact sets an
r-subset may carry on a signature of one arity r, the realized types the
family allows there, in place of one induced entry per forbidden class.

Every fact mask, here and in the block kernel, uses one bit order (_facts):
the facts on {1..n} grouped by the set of points they touch, the groups in
colex order of those sets. The order is prefix-stable, the facts on {1..m}
being the first facts on {1..n}, and the facts of any m-subset S, relabeled
onto {1..m}, keep their order, so M[S] is read out of a mask on {1..n} by
one shift per fact group (_runs).

The family is compiled into copy tables (see copy_table), one per entry
size m, each built the first time a structure or subset of m points is
checked: the fact masks of every relabeling of every size-m entry on
{1..m}, read as the orbit of the entry's mask under the one relabeling
action on fact masks (structures.FactAction), which also keys the
classes of count_members. A universe entry compiles into the masks on
{1..r} whose whole orbit is allowed, one orbit per allowed set.
Membership and enumeration then ask one question of each m-point subset:
does its mask hold a copy (_holds_copy)? The table for m answers it.
HereditaryProperty.entry_matches keeps the direct definition, matching one
entry by isomorphism or embedding search (a universe entry by relabeling
each r-subset); it is the independent path the tests compare against, and
it matches the entries too large to compile (more than COPY_LIMIT
relabelings).

enumerate_members and count_members share one walk (_walker) of one plan
(_plan), yielding every member's fact mask. The plan has one step per
point subset that carries facts, in colex order, and each subset S with
entries of its size is one check, on the step where the last fact S reads
is chosen: S's own step, or the step of its top points when S has no
facts. At a step the walk ANDs one memoized allowed mask per check into
one int mask over the step's choices and descends into its set bits in
increasing order, so it takes one DFS level per fact group.
enumerate_members decodes every mask into a labeled member; count_members
extends one representative per isomorphism class by one point at a time
and weighs each extension count by the class's orbit.
"""

import collections
import itertools
from functools import lru_cache

from .errors import BudgetExceeded, InvalidArgument
from .qftypes import qftp
from .structures import (FactAction, Signature, Structure, class_key,
                         embeds_noninduced, first_of_classes,
                         induced_substructure, is_isomorphic,
                         structure_from_mask)

INDUCED = "induced"
NON_INDUCED = "non-induced"

DEFAULT_ENUM_BUDGET = 10 ** 7
# Most relabelings compiled per entry: entries on up to 6 points. A larger
# entry would cost m! masks (40320 at 8 points) to build and to scan.
COPY_LIMIT = 720
# Most realized types: one per r-point member. mixed has about 3 * 10^9
# members on 3 points, the built-in families at most a few dozen.
TYPE_SPACE_LIMIT = 10 ** 4


class ForbiddenEntry(object):
    """One forbidden structure with its matching mode."""

    __slots__ = ("structure", "match")

    def __init__(self, structure, match=None):
        if match not in (None, INDUCED, NON_INDUCED):
            raise InvalidArgument("unknown match mode %r" % match)
        self.structure = structure
        self.match = match

    @property
    def n(self):
        return self.structure.n

    @property
    def signature(self):
        return self.structure.signature

    def resolved_match(self, default):
        return self.match or default

    def __repr__(self):
        return "ForbiddenEntry(%r, %r)" % (self.structure, self.match)


class UniverseEntry(object):
    """The r-point universe of a signature whose relations all have arity
    r: every r-subset carries one of the `allowed` sets of loop-free facts
    (relation, tuple) on {1..r}, up to relabeling.

    M contains it when some r-subset A, whose induced substructure on this
    signature has no fact repeating an element, reads, under some
    bijection onto {1..r}, as a fact set outside `allowed`. That is what
    the induced entries on the other loop-free fact sets, one per
    isomorphism class, would forbid; copy_table compiles it into the masks
    on {1..r} whose whole orbit is allowed, so none of those classes is
    listed. A fact with a repeated element, a tuple of the wrong arity or
    an unknown relation raises InvalidArgument.
    """

    __slots__ = ("signature", "allowed", "n")

    def __init__(self, signature, allowed):
        arities = {arity for _, arity in signature.relations}
        if len(arities) != 1:
            raise InvalidArgument("universe axioms need one arity, got %r"
                                  % sorted(arities))
        r = arities.pop()
        points = list(range(1, r + 1))
        sets = set()
        for S in allowed:
            S = frozenset((name, tuple(t)) for name, t in S)
            for name, t in S:
                if name not in signature.arities:
                    raise InvalidArgument("universe fact %s%r: unknown "
                                          "relation" % (name, t))
                if len(t) != r:
                    raise InvalidArgument("universe fact %s%r: arity %d, "
                                          "not %d" % (name, t, len(t), r))
                if len(set(t)) < r:
                    raise InvalidArgument("universe fact %s%r repeats an "
                                          "element" % (name, t))
                if sorted(t) != points:
                    raise InvalidArgument("universe fact %s%r is not on "
                                          "{1..%d}" % (name, t, r))
            sets.add(S)
        self.signature = signature
        self.allowed = frozenset(sets)
        self.n = r

    def __repr__(self):
        return "UniverseEntry(%r, %d allowed)" % (self.signature,
                                                  len(self.allowed))


def universe_entries(signature, allowed):
    """The entries saying that each r-subset carries one of the `allowed`
    fact sets and that no fact repeats an element.

    Every relation of the signature has arity r, and `allowed` holds sets
    of loop-free facts (relation, tuple) on {1..r}. First come the
    non-induced single-fact entries, on their relation alone: one per
    relation and repeated-element pattern whose values first appear in the
    order 1, 2, ... Then one UniverseEntry holding `allowed`, which
    forbids every other loop-free fact set on r points without listing
    them.
    """
    universe = UniverseEntry(signature, allowed)
    r = universe.n
    # values in order of first appearance are 1..max(t), with max(t) < r
    patterns = [t for t in itertools.product(range(1, r + 1), repeat=r)
                if max(t) < r
                and list(dict.fromkeys(t)) == list(range(1, max(t) + 1))]
    return [ForbiddenEntry(Structure(Signature([(name, r)]), max(t),
                                     {name: [t]}), NON_INDUCED)
            for name, _ in signature.relations for t in patterns] + [universe]


class HereditaryProperty(object):
    """Forb(F) for a finite family F."""

    def __init__(self, signature, forbidden, mode=INDUCED, name=None):
        if mode not in (INDUCED, NON_INDUCED):
            raise InvalidArgument("unknown mode %r" % mode)
        entries = []
        for f in forbidden:
            if isinstance(f, Structure):
                f = ForbiddenEntry(f)
            if f.n < 1:
                raise InvalidArgument("forbidden structures need size >= 1")
            if not f.signature.is_reduct_of(signature):
                raise InvalidArgument("forbidden entry signature incompatible")
            entries.append(f)
        self.signature = signature
        self.forbidden = tuple(entries)
        self.mode = mode
        self.name = name
        self.k = max((f.n for f in entries), default=0)
        # Built on first use: see realized_type_space, block_checker and
        # copy_table (one slot per entry size, ascending).
        self._type_space = None
        self._checker = None
        self._copy_tables = dict.fromkeys(sorted({f.n for f in entries}))

    def entry_matches(self, entry, M):
        """Does M contain the entry under its matching mode? A
        UniverseEntry is matched by its definition: some r-subset, loop-free
        on the entry's signature, has a relabeling outside `allowed`."""
        if isinstance(entry, UniverseEntry):
            r = entry.n
            perms = list(itertools.permutations(range(1, r + 1)))
            for A in itertools.combinations(M.domain(), r):
                facts = list(induced_substructure(M, A).reduct(
                    entry.signature).facts())
                if all(len(set(t)) == r for _, t in facts) and any(
                        frozenset((name, tuple(p[x - 1] for x in t))
                                  for name, t in facts) not in entry.allowed
                        for p in perms):
                    return True
            return False
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


@lru_cache(maxsize=256)
def _facts(signature, n):
    """The facts on {1..n}, in the bit order of every fact mask.

    The facts are grouped by the set of points they touch, the groups in
    colex order of those sets (every proper subset of a set comes first)
    and each group sorted. The order is prefix-stable: the facts on {1..m}
    are the first facts on {1..n} for every n >= m. They are counted before
    any is built: more than DEFAULT_ENUM_BUDGET raise BudgetExceeded.
    """
    count = sum(n ** arity for _, arity in signature.relations)
    if count > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded("%d facts on %d points exceed budget"
                             % (count, n))
    facts = [(name, t) for name, arity in signature.relations
             for t in itertools.product(range(1, n + 1), repeat=arity)]
    return tuple(sorted(facts, key=lambda f: (sorted(set(f[1]),
                                                     reverse=True), f)))


@lru_cache(maxsize=256)
def _fact_index(signature, n):
    """The bit of every fact on {1..n} (see _facts)."""
    return {fact: i for i, fact in enumerate(_facts(signature, n))}


def copy_table(H, m):
    """The labeled-copy table of the size-m entries, built on first use.

    A tuple (induced, non_induced, direct, universe). The copies of an
    entry are the orbit of its fact mask on {1..m} under the relabelings
    (structures.FactAction). `induced` pairs the mask of an entry
    signature's relations, built once per signature, with the copies of
    the induced entries on that signature; `non_induced` holds the copies
    of the non-induced entries as (lowest bit, copies with that lowest
    bit) pairs. `universe` holds one (relmask, loops, good) triple per
    UniverseEntry: the mask of its signature's relations, the mask of
    those facts that repeat an element, and the masks whose whole orbit
    is allowed; x holds a copy when x & relmask has no loop fact and is
    not in good.
    Entries with more than COPY_LIMIT relabelings (more than 6 points) are
    not compiled: `direct` holds them, for HereditaryProperty.entry_matches.
    Each orbit forms m! masks, one per relabeling: more than
    DEFAULT_ENUM_BUDGET (read at call time) raise BudgetExceeded before
    any is formed.
    """
    table = H._copy_tables[m]
    if table is None:
        induced, non_induced, universe, relmasks = {}, set(), [], {}
        action = FactAction(m, _facts(H.signature, m))
        entries, direct = [f for f in H.forbidden if f.n == m], ()
        if action.size > COPY_LIMIT:
            entries, direct = [], entries
        formed = action.size * sum(
            len(f.allowed) if isinstance(f, UniverseEntry) else 1
            for f in entries)
        if formed > DEFAULT_ENUM_BUDGET:
            raise BudgetExceeded("copy table on %d points forms %d masks, "
                                 "over budget" % (m, formed))

        def relmask_of(signature):
            relmask = relmasks.get(signature.relations)
            if relmask is None:
                relmask = relmasks[signature.relations] = sum(
                    bit for (name, _), bit in action.bits.items()
                    if name in signature.arities)
            return relmask

        for f in entries:
            if isinstance(f, UniverseEntry):
                allowed = {sum(map(action.bits.__getitem__, S))
                           for S in f.allowed}
                good = set()
                for mask in allowed:
                    copies = action.orbit(mask)
                    if copies <= allowed:
                        good |= copies
                relmask = relmask_of(f.signature)
                loops = sum(bit for (_, t), bit in action.bits.items()
                            if bit & relmask and len(set(t)) < m)
                universe.append((relmask, loops, frozenset(good)))
                continue
            F = f.structure
            copies = action.orbit(sum(action.bits[name, t]
                                      for name, ts in F.relations.items()
                                      for t in ts))
            if f.resolved_match(H.mode) == NON_INDUCED:
                non_induced |= copies
                continue
            induced.setdefault(relmask_of(F.signature), set()).update(copies)
        by_low = {}
        for c in sorted(non_induced):
            by_low.setdefault(c & -c, []).append(c)
        table = H._copy_tables[m] = (
            tuple((relmask, frozenset(copies))
                  for relmask, copies in induced.items()),
            tuple((low, tuple(by_low[low])) for low in sorted(by_low)),
            tuple(direct), tuple(universe))
    return table


def _matches(table, x):
    """Does the structure with fact mask x contain a compiled copy?

    A universe is one set lookup. A non-induced copy fits when it is a
    subset of x, so only the copies whose lowest bit is set in x are read
    (and the empty copy, if any).
    """
    induced, non_induced, _, universe = table
    for relmask, loops, good in universe:
        y = x & relmask
        if not y & loops and y not in good:
            return True
    for relmask, copies in induced:
        if (x & relmask) in copies:
            return True
    for low, copies in non_induced:
        if x & low or not low:
            for c in copies:
                if c & x == c:
                    return True
    return False


def _runs(signature, n, S):
    """How to read M[S], relabeled order-preservingly onto {1..|S|}, out of
    a fact mask of M on {1..n}: the OR over the runs (bit, width mask,
    local) of (mask >> bit & width) << local. The relabeling keeps the
    order of _facts, so the facts of each subset of S are one run;
    consecutive runs that stay consecutive are merged."""
    index = _fact_index(signature, n)
    runs = []
    for local, (name, t) in enumerate(_facts(signature, len(S))):
        bit = index[(name, tuple(S[x - 1] for x in t))]
        if runs and runs[-1][0] + runs[-1][1] == bit and (
                runs[-1][2] + runs[-1][1] == local):
            runs[-1][1] += 1
        else:
            runs.append([bit, 1, local])
    return tuple((bit, (1 << width) - 1, local) for bit, width, local in runs)


@lru_cache(maxsize=256)
def _gathers(signature, n, m):
    """The runs of every m-subset of {1..n}, lexicographic (see _runs)."""
    return tuple(_runs(signature, n, B)
                 for B in itertools.combinations(range(1, n + 1), m))


def _holds_copy(H, m, table, gathers, mask):
    """Does some m-subset, read out of `mask` onto {1..m} by its runs in
    `gathers` (see _runs), hold a copy of a size-m entry? The copy table
    for m (copy_table) answers (_matches), then entry_matches for the
    entries too large to compile."""
    for runs in gathers:
        x = 0
        for bit, width, local in runs:
            x |= (mask >> bit & width) << local
        if _matches(table, x):
            return True
        if table[2]:
            M = structure_from_mask(H.signature, m, _facts(H.signature, m), x)
            if any(H.entry_matches(f, M) for f in table[2]):
                return True
    return False


def mask_is_member(H, n, mask):
    """Is the structure on {1..n} with fact mask `mask` (see _facts) in
    Forb(F)? No m-subset holds a copy of a size-m entry (_holds_copy)."""
    return not any(_holds_copy(H, m, copy_table(H, m),
                               _gathers(H.signature, n, m), mask)
                   for m in H._copy_tables if m <= n)


def is_member(H, M):
    """M is in Forb(F): mask_is_member of M's fact mask (see _facts)."""
    if not (M.signature == H.signature):
        raise InvalidArgument("signature mismatch")
    index = _fact_index(H.signature, M.n)
    return mask_is_member(H, M.n, sum(1 << index[f] for f in M.facts()))


def _plan(H, n):
    """The steps of the member DFS over the facts on {1..n} (see _facts).

    One step (offset, width, checks) per point subset S of {1..n} that
    carries facts, in colex order: the facts on exactly S are
    facts[offset:offset + width], one bit each in a fact mask. Every subset
    S with entries of its size m = |S| gives one check ((runs,), m, support):
    once the facts on S and its subsets are chosen, M[S] is complete, and
    _holds_copy reads it by S's runs (_runs) out of the chosen facts. Those
    facts matter only within `support`, the mask of the facts on S and its
    subsets (see _walker). The check joins S's own step, or, when S has no
    facts, the last step before S: that is the step of S's top points
    (every signature has facts on a point, so sizes with facts are 1..r,
    and the subsets between those points and S in colex order are too
    large to carry facts), where every fact S reads is fixed. Only sizes
    that carry facts or entries are listed, so the plan is polynomial in n.

    The facts on {1..m} are a prefix of the facts on {1..n}, and so are the
    steps of the subsets of {1..m}, the same for every n >= m: a mask of a
    member on {1..m} is a partial assignment of the plan for {1..n}. ends[m]
    is the length of that prefix of steps, so the steps of the subsets
    whose largest point is m are plan[ends[m - 1]:ends[m]], and every check
    of those subsets is on one of them.
    """
    signature = H.signature
    widths = collections.Counter(tuple(sorted(set(t)))
                                 for _, t in _facts(signature, n))
    sizes = {len(S) for S in widths} | set(H._copy_tables)
    subsets = sorted((S for m in sizes
                      for S in itertools.combinations(range(1, n + 1), m)),
                     key=lambda S: S[::-1])
    plan, ends, offset = [], [0] * (n + 1), 0
    for S in subsets:
        m, width = len(S), widths[S]
        if width:
            plan.append((offset, width, []))
            offset += width
        if m in H._copy_tables:
            runs = _runs(signature, n, S)
            plan[-1][2].append(
                ((runs,), m, sum(ones << bit for bit, ones, _ in runs)))
        ends[S[-1]] = len(plan)
    return plan, ends


def _walker(H, plan, tick, budget):
    """walk(gi, end, chosen): depth-first, the fact mask of every extension
    of the facts `chosen` through plan[gi:end], with tick() once per node:
    once per step and once per leaf.

    The choices of a step are the bit masks c over its group, in increasing
    order. A step without checks takes every c. At a checked step the
    surviving choices are one int mask over its 2^width choices, bit c for
    choice c: the AND of one allowed mask per check, the choices that leave
    M[S] a member. Those depend only on the chosen facts within the check's
    support, so each check memoizes a [checked, allowed] pair of masks per
    step, check and chosen & support. The pair is filled lazily, only for
    the choices still alive when the check is read, so a later check of a
    step tests only the survivors of the earlier ones; the first check fills
    every choice at once, and a checked step with more than `budget` choices
    raises BudgetExceeded before any is tested."""
    steps = [(offset, width, [(gathers, m, support, {})
                              for gathers, m, support in checks])
             for offset, width, checks in plan]

    def walk(gi, end, chosen):
        tick()
        if gi == end:
            yield chosen
            return
        offset, width, checks = steps[gi]
        if not checks:
            for c in range(1 << width):
                yield from walk(gi + 1, end, chosen | c << offset)
            return
        alive = -1  # every choice: a todo < 0 below is every choice too
        for gathers, m, support, memo in checks:
            key = chosen & support
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = [0, 0]
            todo = alive & ~entry[0]
            if todo:
                if 1 << width > budget:
                    raise BudgetExceeded(
                        "2^%d choices of one step exceed budget" % width)
                table = copy_table(H, m)
                entry[1] |= sum(1 << c for c in (
                    range(1 << width) if todo < 0 else _ones(todo))
                    if not _holds_copy(H, m, table, gathers,
                                       key | c << offset))
                entry[0] |= todo
            alive &= entry[1]
            if not alive:
                return
        while alive:
            low = alive & -alive
            yield from walk(gi + 1, end,
                            chosen | (low.bit_length() - 1) << offset)
            alive ^= low
    return walk


def _ones(mask):
    """The set bits of a nonnegative int mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _budget_counter(budget, n):
    """tick(k=1) counts k units of work (DFS nodes) and raises past the
    budget."""
    counter = [0]

    def tick(k=1):
        counter[0] += k
        if counter[0] > budget:
            raise BudgetExceeded("enumeration budget exhausted at n=%d" % n)
    return tick


def enumerate_members(H, n, budget=DEFAULT_ENUM_BUDGET):
    """Stream every labeled member on {1..n} exactly once, deterministically.

    The member walk (_walker) through every step of _plan, one DFS level
    per point subset that carries facts, each leaf mask decoded into a
    Structure. The order is the walk's: the choices of each step in
    increasing order. Budget counts walk nodes (steps and leaves), and a
    checked step with more than `budget` choices raises at once (see
    _walker). This is the labeled stream, and the oracle of count_members.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    facts = _facts(H.signature, n)
    plan, _ = _plan(H, n)
    walk = _walker(H, plan, _budget_counter(budget, n), budget)
    for mask in walk(0, len(plan), 0):
        yield structure_from_mask(H.signature, n, facts, mask)


def count_members(H, n, budget=DEFAULT_ENUM_BUDGET):
    """|H_n| as an exact integer, counted over isomorphism classes.

    Every member on {1..m} is a member on {1..m-1} plus the point m, and
    the number ext(R) of ways to add the point depends only on the class of
    R, so |H_m| = sum over classes R of H_{m-1} of orbit(R) * ext(R), with
    orbit(R) = (m-1)!/|Aut R| (see structures.class_key). Level by level,
    the member walk (_walker) extends each class representative through the
    plan steps of the subsets whose largest point is m, which hold every
    check of those subsets, and each extension is keyed by class as it
    arrives: the first of a class represents it in H_m. The last level is
    counted. Budget counts walk nodes (steps with facts and leaves), and m!
    per key; the key is read from the orbit under one FactAction per level.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    plan, ends = _plan(H, n)
    tick = _budget_counter(budget, n)
    walk = _walker(H, plan, tick, budget)
    classes = [(0, 1)]  # (representative mask, orbit) of the classes of H_0
    for m in range(1, n):
        action = FactAction(m, _facts(H.signature, m))
        found = {}
        for rep, _ in classes:
            for mask in walk(ends[m - 1], ends[m], rep):
                tick(action.size)
                key, orbit = class_key(action, mask)
                if key not in found:
                    found[key] = (mask, orbit)
        classes = list(found.values())
    return sum(orbit * sum(1 for _ in walk(ends[n - 1], ends[n], rep))
               for rep, orbit in classes)


def realized_type_space(H):
    """S_r(H): types whose r-point realizing structure is a member.

    Computed by enumerating the r-point members; valid because the property
    is hereditary by construction. Every r-point member, including ones with
    repeated-entry facts, contributes the type of its identity enumeration,
    so the types are as many as the members; past TYPE_SPACE_LIMIT of them
    the enumeration stops with BudgetExceeded. The enumeration runs once
    per property; every call returns a new list.
    """
    if H._type_space is None:
        r = H.signature.r
        identity = tuple(range(1, r + 1))
        types = set()
        for M in enumerate_members(H, r):
            types.add(qftp(M, identity))
            if len(types) > TYPE_SPACE_LIMIT:
                raise BudgetExceeded(
                    "more than %d realized types" % TYPE_SPACE_LIMIT)
        H._type_space = tuple(sorted(types))
    return list(H._type_space)


def closure(H, K):
    """cl_K(F): size-K non-members, one representative per isomorphism class.

    Walks the raw labeled fact space of size-K structures in mask order,
    so it raises BudgetExceeded when that space has more than
    DEFAULT_ENUM_BUDGET masks; tractable for binary signatures at desk
    scale.
    The representative of a class is its first non-member in that order
    (structures.first_of_classes).
    """
    if K < H.k:
        raise InvalidArgument("K must be at least the max forbidden size")
    facts = []
    for name, arity in H.signature.relations:
        facts.extend((name, t) for t in
                     itertools.product(range(1, K + 1), repeat=arity))
    if 1 << len(facts) > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(
            "closure space 2^%d exceeds budget" % len(facts))
    non_members = [
        mask for mask in range(1 << len(facts))
        if not is_member(H, structure_from_mask(H.signature, K, facts, mask))]
    return [structure_from_mask(H.signature, K, facts, mask)
            for mask in first_of_classes(K, facts, non_members)]


def is_trivial_up_to(H, n_max):
    """True when some H_n is empty for n <= n_max (triviality at this scale)."""
    for n in range(1, n_max + 1):
        if next(iter(enumerate_members(H, n)), None) is None:
            return True
    return False
