"""Templates: choice sets, choice functions, subpattern counting, errors,
flaw checks, H-randomness, restriction, and the block kernel.

A template maps each r-subset of {1..n} to a nonempty set of realized types
(canonical sorted-support form). Iteration order is always colexicographic
over subsets and lexicographic over type fact-vectors, for determinism.

The block kernel (_BlockChecker, one per property) answers the question
that H-randomness, the extremal search and the containers hypergraph share:
does every choice of types on the r-subsets of a small block merge to a
member? It works on ints and bit masks only. Types and choice sets are
interned as small ints, and a choice set is also a mask of type ids. A
located type is a pair of fact masks (true facts, false facts), so a merge
is an OR of pairs, unsatisfiable when the two ORs meet, and its membership
is read from the copy tables (properties.mask_is_member); no Structure is
built. Per block size, the kernel keeps the mask pair of every type on
every relative r-subset and memoizes membership per merged true mask; per
block size and choice sets on all but the block's last r-subset, it keeps
the mask of the types allowed on the last one. Above r points it is asked
about realized types (S_r(H)) only: is_h_random checks every type at size
r first, and the search and the containers hypergraph take their types
from S_r(H). block_subsets gives the r-subset indices of every block;
closing_blocks, the one block schedule of every walk over a template or a
block, lists per r-subset the larger blocks it closes (is the
colex-last r-subset of), each with a getter of its other entries. Two
located types agree when neither's true facts meet the other's false
facts (located_agree); errors are disagreements on the pairs of r-subsets
in error_pairs. A permutation of the points of {1..n} carries the type of
an r-subset A to A's image, read in the order in which A's points land
there: its variables are permuted by that order of 1..r. The kernel keeps
that action of every order on choice-set ids (_BlockChecker.relabeled_set).
"""

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .diagrams import located_facts
from .errors import BudgetExceeded, InvalidArgument
from .properties import (_fact_index, _facts, _gathers, _holds_copy,
                         copy_table, is_member, mask_is_member)
from .qftypes import QfType, atom_index, atoms, qftp
from .structures import structure_from_mask

DEFAULT_CHI_BUDGET = 10 ** 6


def r_subsets(n, r):
    """All r-subsets of {1..n} in colexicographic order."""
    subs = list(itertools.combinations(range(1, n + 1), r))
    subs.sort(key=lambda S: tuple(reversed(S)))
    return subs


@lru_cache(maxsize=256)
def _subset_order(n, r):
    """r_subsets(n, r) as a tuple, shared by every Template on {1..n}."""
    return tuple(r_subsets(n, r))


@lru_cache(maxsize=256)
def _subset_keys(n, r):
    """The keys of _subset_order(n, r) as a set: the canonical r-subsets."""
    return frozenset(_subset_order(n, r))


@lru_cache(maxsize=256)
def error_pairs(n, r):
    """The index pairs (j, i), j < i, of r_subsets(n, r) whose union has
    more than r and fewer than 2r points (the error window), in
    lexicographic order. Only choices on such pairs can form an error."""
    subs = r_subsets(n, r)
    return tuple((j, i) for j, i in itertools.combinations(range(len(subs)), 2)
                 if r < len(set(subs[j]) | set(subs[i])) < 2 * r)


class Template(object):
    """A complete-or-partial choice-set map over the r-subsets of {1..n}."""

    def __init__(self, H, n, choices):
        r = H.signature.r
        if n < r:
            raise InvalidArgument("template domain smaller than r")
        canonical = _subset_keys(n, r)
        normalized = {}
        for A, types in choices.items():
            # a sorted in-range tuple is stored as it is; a list key is
            # not hashable, so only tuples are looked up
            if type(A) is not tuple or A not in canonical:
                A = tuple(sorted(A))
                if len(A) != r or A[0] < 1 or A[-1] > n:
                    raise InvalidArgument("bad r-subset %r" % (A,))
            normalized[A] = frozenset(types)
        self.property = H
        self.n = n
        self.choices = normalized
        self.subsets = _subset_order(n, r)

    def choice(self, A):
        return self.choices.get(tuple(sorted(A)), frozenset())

    def is_complete(self):
        return all(self.choices.get(A) for A in self.subsets)

    def canonical_key(self):
        return tuple(tuple(sorted(t.facts for t in self.choices.get(A, ())))
                     for A in self.subsets)

    def __eq__(self, other):
        return (isinstance(other, Template) and self.n == other.n
                and self.property is other.property
                and self.choices == other.choices)

    def __hash__(self):
        return hash((self.n, self.canonical_key()))

    def __repr__(self):
        parts = ", ".join("%s:%s" % (list(A), sorted(t.id() for t in self.choices[A]))
                          for A in self.subsets if A in self.choices)
        return "Template(n=%d, {%s})" % (self.n, parts)


def template_from_structure(H, N):
    """The singleton template of a member N; its unique subpattern is N."""
    if not is_member(H, N):
        raise InvalidArgument("structure is not a member of the property")
    r = H.signature.r
    choices = {A: [qftp(N, A)] for A in itertools.combinations(N.domain(), r)}
    return Template(H, N.n, choices)


def _require_complete(T):
    if not T.is_complete():
        raise InvalidArgument("template is not complete")


def choice_count(T):
    """Product of choice-set sizes, exact big integer."""
    _require_complete(T)
    out = 1
    for A in T.subsets:
        out *= len(T.choices[A])
    return out


def has_low_facts(p):
    """Does p have a true atom on fewer than r distinct variables?

    Only such facts are shared by two distinct r-subsets, so located types
    without one always merge: errors need a true low fact somewhere. The
    kernel computes this once per type (_BlockChecker.set_low).
    """
    return any(b and len(set(varmap)) < p.r
               for (_, varmap), b in zip(atoms(p.signature), p.facts))


@lru_cache(maxsize=1 << 16)
def _located_masks(signature, n, A, p):
    """p located on A as (true facts, false facts): masks over the facts
    on {1..n}, in _fact_index order."""
    index = _fact_index(signature, n)
    true = false = 0
    for fact, b in located_facts(A, p).items():
        if b:
            true |= 1 << index[fact]
        else:
            false |= 1 << index[fact]
    return true, false


def located_agree(signature, n, A1, p, A2, q):
    """Do p located on A1 and q located on A2 (r-subsets of {1..n}) agree
    on their shared facts? Neither's true facts meet the other's false
    facts."""
    t1, f1 = _located_masks(signature, n, A1, p)
    t2, f2 = _located_masks(signature, n, A2, q)
    return not (t1 & f2 or f1 & t2)


def detect_errors(T):
    """All error witnesses: subsets X, r < |X| < 2r, carrying two located
    choices on overlapping r-subsets covering X with unsatisfiable union."""
    _require_complete(T)
    checker = block_checker(T.property)
    return list(_errors(T, [checker.set_id(T.choices[A]) for A in T.subsets]))


def _errors(T, cids):
    """detect_errors' witnesses, one by one; cids are the block kernel's
    choice-set ids on T.subsets. Only templates with a low fact in some
    choice set can have errors."""
    signature = T.property.signature
    r = signature.r
    set_low = block_checker(T.property).set_low
    if not any(set_low[c] for c in cids):
        return
    seen = set()
    for j, i in error_pairs(T.n, r):
        A1, A2 = T.subsets[j], T.subsets[i]
        union = tuple(sorted(set(A1) | set(A2)))
        for p in sorted(T.choices[A1]):
            for q in sorted(T.choices[A2]):
                if not located_agree(signature, T.n, A1, p, A2, q):
                    if union not in seen:
                        seen.add(union)
                        yield union, (A1, p), (A2, q)


def is_error_free(T):
    """No error witness (detect_errors); stops at the first one."""
    _require_complete(T)
    checker = block_checker(T.property)
    cids = [checker.set_id(T.choices[A]) for A in T.subsets]
    return next(_errors(T, cids), None) is None


def sub_count(T):
    """sub(T) and the error_free flag.

    Fast path: error-free templates have sub = choice_count (in particular
    whenever no relation has arity < r). Slow path: count the satisfiable
    choice functions (_merges).
    """
    _require_complete(T)
    if is_error_free(T):
        return choice_count(T), True
    return len(_merges(T)), False


def validate_template(T):
    """Flaw check in the canonical representation.

    Every choice set must be nonempty and consist of types whose realizing
    structures are members (i.e. lie in S_r(H)): the block kernel's
    size-r outcome. Returns (ok, diagnostic).
    """
    checker = block_checker(T.property)
    r = T.property.signature.r
    for A in T.subsets:
        types = T.choices.get(A)
        if not types:
            return False, ("incomplete", A)
        for p in sorted(types):
            if not checker.outcome(r, (checker.type_id(p),)):
                return False, ("type outside realized space", A, p.id())
    return True, None


def is_flaw_free(T):
    return validate_template(T)[0]


@lru_cache(maxsize=256)
def block_subsets(n, r, size):
    """For every size-point block of {1..n}, in lexicographic order: the
    indices in r_subsets(n, r) of its r-subsets, in lexicographic order
    (the order of the relative r-subsets of {1..size})."""
    index = {A: i for i, A in enumerate(r_subsets(n, r))}
    return tuple(tuple(index[A] for A in itertools.combinations(block, r))
                 for block in itertools.combinations(range(1, n + 1), size))


def tuple_getter(idx):
    """A getter of the tuple (v[i] for i in idx) from a sequence v; idx is
    not empty."""
    return itemgetter(*idx) if len(idx) > 1 else lambda v, i=idx[0]: (v[i],)


@lru_cache(maxsize=256)
def closing_blocks(n, r, k):
    """For each index i of r_subsets(n, r): (size, getter) for every block
    of size r+1..min(k, n) whose colex-last r-subset is the i-th; the
    getter reads the entries of the block's other r-subsets, in
    lexicographic order, from a sequence over r_subsets(n, r)."""
    out = [[] for _ in range(math.comb(n, r))]
    for size in range(r + 1, min(k, n) + 1):
        for idx in block_subsets(n, r, size):
            out[idx[-1]].append((size, tuple_getter(idx[:-1])))
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def _atom_perm(signature, order):
    """For each atom (relation, variable map) of the signature, the index
    of the atom whose variable v is order[v - 1]: a type read in `order`
    (an order of 1..r) has at each atom the fact of that index."""
    index = atom_index(signature)
    return tuple(index[name, tuple(order[v - 1] for v in varmap)]
                 for name, varmap in atoms(signature))


def _join(merges, pool):
    """The ORs of a (true facts, false facts) mask pair in `merges` with
    one in `pool` that are satisfiable: their true facts miss their false
    facts."""
    return [(mt, mf) for t, f in merges for pt, pf in pool
            if not (mt := t | pt) & (mf := f | pf)]


class _BlockChecker(object):
    """The compiled block kernel of one property (see block_checker).

    Types and choice sets get small int ids on first sight; the kernel
    never enumerates S_r(H) itself, since is_h_random and detect_errors
    also serve properties whose type space is out of reach (mixed has
    about 3 * 10^9 members on 3 points). A type outside S_r(H) is one
    more id, and its size-r outcome is False; on more than r points the
    kernel answers for realized types only, the only ones its callers
    ask about there. A choice set is also a bit
    mask over type ids (`set_masks`). For a block of s points, an
    assignment is a tuple of ids on the relative r-subsets of {1..s}
    (lexicographic, so the colex-last subset comes last).

    Per block size s, two tables are built on first use (see _size): the
    located (true facts, false facts) mask pair of every type id on every
    relative r-subset of {1..s}, so a merge is an OR of list entries; and
    the member checks on {1..s}, each a copy table with its gathers
    (properties._holds_copy). On s > r points, a satisfiable merge of
    realized types is a member exactly when no m-subset with m > r holds
    a copy: every smaller subset lies inside one r-subset, whose facts are
    that type's own. So only the entry sizes m > r are checked there. The
    checks of a merge are memoized per size by its true mask.

    `cache`, keyed by (s, choice-set ids of all but the last subset),
    holds the types allowed on the last subset: those whose every
    completion by a choice from the others does not merge to a
    non-member. It is filled type by type, as [types checked, types
    allowed] masks; the choices from the other sets are merged once per
    fill (_join), and each type is tested against those merges. The cache
    holds at most |choice sets|^(C(s,r)-1) entries per size.

    Every walk reads `allowed` along closing_blocks, the one block
    schedule: the search for all its candidate types at once, is_h_random
    for each subset's choice set, and `members` for the singleton sets of
    its DFS. block_verdict is one read of allowed, and block_ok is
    block_verdict on a choice map. The containers hypergraph reads
    `members`, since its edges include the unsatisfiable merges, which
    allowed lets through (errors are checked apart).

    `relabeled_set` is the action on choice-set ids of an order of the
    variables; the extremal search reads it to relabel id vectors.
    """

    def __init__(self, H):
        self.H = H
        self.r = H.signature.r
        self.types = []      # type id -> QfType
        self.type_ids = {}   # QfType -> type id
        self.sets = []       # choice-set id -> tuple of type ids
        self.set_ids = {}    # frozenset of types -> choice-set id
        self.set_masks = []  # choice-set id -> bit mask of its type ids
        self.set_low = []    # choice-set id -> has_low_facts of some type
        self.sizes = {}      # s -> the tables of block size s (see _size)
        self.cache = {}
        self.relabelings = {}  # (order, choice-set id) -> its image

    def type_id(self, p):
        t = self.type_ids.get(p)
        if t is None:
            t = self.type_ids[p] = len(self.types)
            self.types.append(p)
            for s in self.sizes:
                self._locate(s, t)
        return t

    def set_id(self, types):
        """The id of a choice set (any iterable of types). New types get
        ids in fact order, so ids do not depend on hashing."""
        types = frozenset(types)
        c = self.set_ids.get(types)
        if c is None:
            c = self.set_ids[types] = len(self.sets)
            ids = tuple(map(self.type_id, sorted(types)))
            self.sets.append(ids)
            self.set_masks.append(sum(1 << t for t in ids))
            self.set_low.append(any(map(has_low_facts, types)))
        return c

    def relabeled_set(self, order, c):
        """The id of choice set c with each type p read in `order`, an
        order of 1..r: the set of qftp(p.realizing_structure(), order),
        which a point permutation moving the points of an r-subset in that
        order puts on the subset's image. A type's image permutes its fact
        vector through atoms (_atom_perm)."""
        out = self.relabelings.get((order, c))
        if out is None:
            perm = _atom_perm(self.H.signature, order)
            out = self.relabelings[order, c] = self.set_id(
                QfType(self.H.signature,
                       [self.types[t].facts[a] for a in perm])
                for t in self.sets[c])
        return out

    def _size(self, s):
        """The tables of block size s, built on first use: (located,
        checks, memo). located[i][t] is the mask pair of type id t on the
        i-th relative r-subset of {1..s}; checks holds (m, copy table,
        gathers) for each entry size m <= s, only m > r when s > r; memo
        maps true masks to the result of _non_member."""
        tables = self.sizes.get(s)
        if tables is None:
            H, r = self.H, self.r
            checks = [(m, copy_table(H, m), _gathers(H.signature, s, m))
                      for m in H._copy_tables
                      if m <= s and (m > r or s == r)]
            tables = self.sizes[s] = (
                [[] for _ in range(math.comb(s, r))], checks, {})
            for t in range(len(self.types)):
                self._locate(s, t)
        return tables

    def _locate(self, s, t):
        """Append the mask pairs of type id t on the relative r-subsets
        of {1..s} to the located table of size s."""
        signature = self.H.signature
        rel = itertools.combinations(range(1, s + 1), self.r)
        for A, row in zip(rel, self.sizes[s][0]):
            row.append(_located_masks(signature, s, A, self.types[t]))

    def _non_member(self, s, true):
        """Is the satisfiable merge with true mask `true` (from the located
        table of size s) a non-member? It holds a copy on a checked
        subset. Memoized per size."""
        _, checks, memo = self._size(s)
        out = memo.get(true)
        if out is None:
            out = memo[true] = any(_holds_copy(self.H, m, table, gathers, true)
                                   for m, table, gathers in checks)
        return out

    def outcome(self, s, ids):
        """The types `ids` on the relative r-subsets of {1..s}, merged:
        None when they disagree on a fact, else whether the merge is a
        member of H.

        Each located type is a (true facts, false facts) pair of masks on
        {1..s}; the merge is the OR of the pairs, and it is unsatisfiable
        when the two ORs meet. Membership is read from the true mask
        (_non_member)."""
        true = false = 0
        for row, t in zip(self._size(s)[0], ids):
            pt, pf = row[t]
            true |= pt
            false |= pf
        return None if true & false else not self._non_member(s, true)

    def members(self, s, ids):
        """The assignments of the type ids `ids` on the relative r-subsets
        of {1..s} (lexicographic) whose merge is a member (outcome True),
        sorted.

        One DFS over the relative r-subsets in colex order, the search's:
        at each, the candidates are the types `allowed` on every block the
        subset closes (closing_blocks), read with the singleton choice sets
        placed so far, minus those that make the running merge
        unsatisfiable. On s = r points they are the types allowed on
        {1..r}."""
        r = self.r
        order = block_subsets(s, r, s)[0]  # colex index of each lex subset
        rows = [row for _, row in sorted(zip(order, self._size(s)[0]))]
        need = sum(1 << t for t in set(ids))
        if s == r:
            # allowed returns its whole cached mask: keep only `ids`
            need &= self.allowed(r, (), need)
        single = {t: self.set_id((self.types[t],)) for t in ids}
        steps = list(zip(closing_blocks(s, r, self.H.k), rows))
        cids = [None] * len(steps)
        chosen = [None] * len(steps)
        lexical = tuple_getter(order)
        out = []

        def extend(i, true, false):
            blocks, row = steps[i]
            todo = need
            for size, get in blocks:
                todo &= self.allowed(size, get(cids), todo)
            while todo:
                low = todo & -todo
                todo ^= low
                t = low.bit_length() - 1
                pt, pf = row[t]
                mt, mf = true | pt, false | pf
                if mt & mf:
                    continue
                cids[i], chosen[i] = single[t], t
                if i + 1 < len(steps):
                    extend(i + 1, mt, mf)
                else:
                    out.append(lexical(chosen))

        extend(0, 0, 0)
        return sorted(out)

    def allowed(self, s, prefix, need):
        """The types, among the type mask `need`, allowed on the last
        relative r-subset of {1..s} after the choice sets `prefix` on the
        others: a type mask (see the cache)."""
        key = (s, prefix)
        entry = self.cache.get(key)
        if entry is None:
            entry = self.cache[key] = [0, 0]
        todo = need & ~entry[0]
        if todo:
            located, _, memo = self._size(s)
            merges = [(0, 0)]
            for row, c in zip(located, prefix):
                merges = _join(merges, [row[t] for t in self.sets[c]])
            while todo:
                low = todo & -todo
                pt, pf = located[-1][low.bit_length() - 1]
                for mt, mf in merges:
                    true = mt | pt
                    if not true & (mf | pf):
                        # _non_member's memo, read inline: this is the
                        # kernel's innermost loop
                        non_member = memo.get(true)
                        if non_member is None:
                            non_member = self._non_member(s, true)
                        if non_member:
                            break
                else:
                    entry[1] |= low
                entry[0] |= low
                todo ^= low
        return entry[1]

    def block_verdict(self, s, cids):
        """Does no choice from the choice sets `cids` on the relative
        r-subsets of {1..s} merge to a non-member? One read of allowed."""
        need = self.set_masks[cids[-1]]
        return not need & ~self.allowed(s, cids[:-1], need)

    def block_ok(self, block, choice_map):
        """block_verdict for callers holding a choice map: block is a sorted
        point tuple, choice_map maps its r-subsets to sets of types. No
        library path calls it; bench/layers.py times it as a layer."""
        cids = tuple(self.set_id(choice_map[A])
                     for A in itertools.combinations(block, self.r))
        return self.block_verdict(len(block), cids)


def block_checker(H):
    """The property's one _BlockChecker, built on first use."""
    if H._checker is None:
        H._checker = _BlockChecker(H)
    return H._checker


def is_h_random(T):
    """Prop.-random style test: error-free and no small block of choices
    merges to a non-member (block sizes r..k, k = max forbidden size).
    Every type passes the size-r check before any larger block is read,
    so the kernel is asked only about realized types there."""
    _require_complete(T)
    H = T.property
    r = H.signature.r
    checker = block_checker(H)
    cids = [checker.set_id(T.choices[A]) for A in T.subsets]
    if next(_errors(T, cids), None) is not None:
        return False
    # every chosen type against {1..r}, then each subset's types against
    # the blocks it closes
    allowed, masks = checker.allowed, checker.set_masks
    need = 0
    for c in cids:
        need |= masks[c]
    if need & ~allowed(r, (), need):
        return False
    for blocks, c in zip(closing_blocks(T.n, r, H.k), cids):
        need = masks[c]
        for size, get in blocks:
            if need & ~allowed(size, get(cids), need):
                return False
    return True


_mask_is_member = lru_cache(maxsize=1 << 16)(mask_is_member)


def _merges(T):
    """The true-fact masks on {1..n} of the satisfiable choice functions
    of T, one per choice function.

    A located type fixes every fact on its r-subset, so it is a pair of
    fact masks on {1..n}: (true facts, false facts). A choice function
    merges to the OR of its true masks, and is unsatisfiable when that
    meets the OR of its false masks. The pairs are ORed subset by subset
    (_join), and a partial merge is dropped as soon as it is
    unsatisfiable. Two distinct satisfiable (partial) choice functions
    differ on some fact of a subset where their types differ, so their
    merges are distinct. Each join forms at most DEFAULT_CHI_BUDGET
    partial merges, counting the dropped ones; as the kept ones are
    distinct, a join forms at most choice_count(T), so every template
    within that many choice functions passes.
    """
    _require_complete(T)
    signature = T.property.signature
    merges = [(0, 0)]
    for A in T.subsets:
        pool = [_located_masks(signature, T.n, A, p) for p in T.choices[A]]
        formed = len(merges) * len(pool)
        if formed > DEFAULT_CHI_BUDGET:
            raise BudgetExceeded("partial merges over budget (%d)" % formed)
        merges = _join(merges, pool)
    return [t for t, _ in merges]


def is_h_random_direct(T):
    """Direct-definition oracle: every choice function merges to a member.
    Each merge is checked with properties.mask_is_member, memoized by mask
    since templates share them."""
    merges = _merges(T)
    return len(merges) == choice_count(T) and all(
        _mask_is_member(T.property, T.n, t) for t in merges)


def restrict(T, A):
    """T[A], relabeled to {1..|A|}; preserves completeness and H-randomness."""
    A = sorted(set(A))
    r = T.property.signature.r
    if len(A) < r:
        raise InvalidArgument("restriction smaller than r")
    pos = {a: i + 1 for i, a in enumerate(A)}
    choices = {}
    for S in itertools.combinations(A, r):
        if tuple(S) in T.choices:
            choices[tuple(pos[a] for a in S)] = T.choices[tuple(S)]
    return Template(T.property, len(A), choices)


def full_subpatterns(T):
    """The merged structures of the satisfiable choice functions (see
    _merges for the budget), one per choice function, in
    increasing order of their fact masks (properties._facts order)."""
    facts = _facts(T.property.signature, T.n)
    return [structure_from_mask(T.property.signature, T.n, facts, t)
            for t in sorted(_merges(T))]


def is_full_subpattern(G, T):
    """G is a full subpattern of T: each r-subset diagram is a chosen type."""
    if G.n != T.n:
        return False
    for A in T.subsets:
        if qftp(G, A) not in T.choices.get(A, ()):
            return False
    return True
