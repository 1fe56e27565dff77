"""Templates: choice sets, choice functions, subpattern counting, errors,
flaw checks, H-randomness, restriction.

A template maps each r-subset of {1..n} to a nonempty set of realized types
(canonical sorted-support form). Iteration order is always colexicographic
over subsets and lexicographic over type fact-vectors, for determinism.
"""

import itertools
import math
from functools import lru_cache

from .diagrams import LocatedType, merge_entries
from .errors import BudgetExceeded, InvalidArgument
from .properties import is_member
from .qftypes import atoms, qftp

DEFAULT_CHI_BUDGET = 10 ** 6


def r_subsets(n, r):
    """All r-subsets of {1..n} in colexicographic order."""
    subs = list(itertools.combinations(range(1, n + 1), r))
    subs.sort(key=lambda S: tuple(reversed(S)))
    return subs


class Template(object):
    """A complete-or-partial choice-set map over the r-subsets of {1..n}."""

    def __init__(self, H, n, choices):
        r = H.signature.r
        if n < r:
            raise InvalidArgument("template domain smaller than r")
        normalized = {}
        for A, types in choices.items():
            A = tuple(sorted(A))
            if len(A) != r or A[0] < 1 or A[-1] > n:
                raise InvalidArgument("bad r-subset %r" % (A,))
            normalized[A] = frozenset(types)
        self.property = H
        self.n = n
        self.choices = normalized
        self.subsets = r_subsets(n, r)

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


def has_low_facts(types):
    """Does some type have a true atom on fewer than r distinct variables?

    Only such facts are shared by two distinct r-subsets, so located types
    without one always merge: errors need a true low fact somewhere.
    """
    return any(b and len(set(varmap)) < p.r for p in types
               for (_, varmap), b in zip(atoms(p.signature, p.r), p.facts))


@lru_cache(maxsize=1 << 16)
def pair_ok(A1, p, A2, q):
    """Do p located on A1 and q located on A2 agree on their shared facts?"""
    return merge_entries([LocatedType(A1, p), LocatedType(A2, q)]) is not None


def detect_errors(T):
    """All error witnesses: subsets X, r < |X| < 2r, carrying two located
    choices on overlapping r-subsets covering X with unsatisfiable union."""
    _require_complete(T)
    r = T.property.signature.r
    if not has_low_facts(p for A in T.subsets for p in T.choices[A]):
        return []
    found = []
    seen = set()
    for A1, A2 in itertools.combinations(T.subsets, 2):
        union = tuple(sorted(set(A1) | set(A2)))
        if not (r < len(union) < 2 * r):
            continue
        for p in sorted(T.choices[A1]):
            for q in sorted(T.choices[A2]):
                if not pair_ok(A1, p, A2, q):
                    if union not in seen:
                        seen.add(union)
                        found.append((union, (A1, p), (A2, q)))
    return found


def is_error_free(T):
    return not detect_errors(T)


def sub_count(T, budget=DEFAULT_CHI_BUDGET):
    """sub(T) and the error_free flag.

    Fast path: error-free templates have sub = choice_count (in particular
    whenever no relation has arity < r). Slow path: count satisfiable
    choice-function merges; distinct satisfiable choice functions always
    give distinct structures, so no deduplication is needed.
    """
    _require_complete(T)
    error_free = is_error_free(T)
    if error_free:
        return choice_count(T), True
    total = choice_count(T)
    if total > budget:
        raise BudgetExceeded("sub_count slow path over budget (%d)" % total)
    count = 0
    for chi in choice_functions(T):
        if subpattern_of_choice(T, chi) is not None:
            count += 1
    return count, False


def validate_template(T):
    """Flaw check in the canonical representation.

    Every choice set must be nonempty and consist of types whose realizing
    structures are members (i.e. lie in S_r(H)). Returns (ok, diagnostic).
    """
    for A in T.subsets:
        types = T.choices.get(A)
        if not types:
            return False, ("incomplete", A)
        for p in sorted(types):
            if not is_member(T.property, p.realizing_structure()):
                return False, ("type outside realized space", A, p.id())
    return True, None


def is_flaw_free(T):
    return validate_template(T)[0]


class _BlockChecker(object):
    """Memoized checks that located choices merge to members of H.

    Keys are relative configurations (choice sets per relative r-subset), so
    results are shared across blocks in the same position pattern. One
    checker lives on each property (see block_checker).
    """

    def __init__(self, H):
        self.H = H
        self.cache = {}

    def merged_in_h(self, entries, size):
        """None when located types on {1..size} do not merge (they disagree
        on a fact); otherwise whether their merge is a member of H."""
        merged = merge_entries(entries, n=size, signature=self.H.signature)
        return None if merged is None else is_member(self.H, merged)

    def block_ok(self, block, choice_map):
        """block: sorted point tuple; choice_map: A -> frozenset of types."""
        r = self.H.signature.r
        rel_subsets = list(itertools.combinations(range(1, len(block) + 1), r))
        abs_subsets = [tuple(block[i - 1] for i in A) for A in rel_subsets]
        key = tuple(tuple(sorted(t.facts for t in choice_map[A]))
                    for A in abs_subsets)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        ok = True
        pools = [sorted(choice_map[A]) for A in abs_subsets]
        for combo in itertools.product(*pools):
            entries = [LocatedType(A, p) for A, p in zip(rel_subsets, combo)]
            if self.merged_in_h(entries, len(block)) is False:
                ok = False
                break
        self.cache[key] = ok
        return ok


def block_checker(H):
    """The property's one _BlockChecker, built on first use."""
    if H._checker is None:
        H._checker = _BlockChecker(H)
    return H._checker


def is_h_random(T):
    """Prop.-random style test: error-free and no small block of choices
    merges to a non-member (block sizes r..k, k = max forbidden size)."""
    _require_complete(T)
    if not is_error_free(T):
        return False
    H = T.property
    checker = block_checker(H)
    k = min(max(H.k, H.signature.r), T.n)
    for size in range(H.signature.r, k + 1):
        for block in itertools.combinations(range(1, T.n + 1), size):
            cmap = {A: T.choices[A]
                    for A in itertools.combinations(block, H.signature.r)}
            if not checker.block_ok(block, cmap):
                return False
    return True


def is_h_random_direct(T, budget=DEFAULT_CHI_BUDGET):
    """Direct-definition oracle: every choice function merges to a member."""
    _require_complete(T)
    if choice_count(T) > budget:
        raise BudgetExceeded("direct H-randomness oracle over budget")
    for chi in choice_functions(T):
        N = subpattern_of_choice(T, chi)
        if N is None or not is_member(T.property, N):
            return False
    return True


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


def full_subpatterns(T, budget=DEFAULT_CHI_BUDGET):
    """All merged structures of satisfiable choice functions."""
    _require_complete(T)
    if choice_count(T) > budget:
        raise BudgetExceeded("subpattern enumeration over budget")
    out = []
    for chi in choice_functions(T):
        N = subpattern_of_choice(T, chi)
        if N is not None:
            out.append(N)
    return out


def is_full_subpattern(G, T):
    """G is a full subpattern of T: each r-subset diagram is a chosen type."""
    if G.n != T.n:
        return False
    for A in T.subsets:
        if qftp(G, A) not in T.choices.get(A, ()):
            return False
    return True


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
