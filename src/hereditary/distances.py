"""Structure and template distances, the collapsed-relation distance d, the
bound between them, and the constructive subpattern transfer."""

import itertools
from fractions import Fraction
from math import comb, factorial

from .diagrams import LocatedType, merge_entries
from .errors import InvalidArgument
from .properties import is_member, realized_type_space
from .qftypes import qftp
from .templates import is_error_free, is_full_subpattern, sub_count


def diff(M, N):
    """{A in C(domain, r) : Diag^M(A) != Diag^N(A)}."""
    if M.signature != N.signature or M.n != N.n:
        raise InvalidArgument("structures must share signature and domain")
    r = M.signature.r
    if M.n < r:
        raise InvalidArgument("domain smaller than r")
    out = set()
    for A in itertools.combinations(M.domain(), r):
        if qftp(M, A) != qftp(N, A):
            out.add(A)
    return out


def dist(M, N):
    """|diff| / C(n,r), exact."""
    return Fraction(len(diff(M, N)), comb(M.n, M.signature.r))


def _partitions(elements):
    """All set partitions, in canonical restricted-growth-string order."""
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for sub in _partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]


def index_entries(signature):
    """Index = [(R, partition of [arity(R)])], deterministic order."""
    out = []
    for name, arity in signature.relations:
        parts = sorted(_partitions(range(1, arity + 1)),
                       key=lambda p: sorted(tuple(sorted(block)) for block in p))
        for p in parts:
            out.append((name, tuple(tuple(sorted(block)) for block in p)))
    return out


def _collapsed(partition, arity):
    """Position map for R_p: each position i -> index of its part among the
    parts ordered by first occurrence along (1..arity)."""
    part_of = {}
    for block in partition:
        for i in block:
            part_of[i] = min(block)
    order = []
    for i in range(1, arity + 1):
        rep = part_of[i]
        if rep not in order:
            order.append(rep)
    return [order.index(part_of[i]) for i in range(1, arity + 1)], len(order)


def dh_set(M, name, partition):
    """DH^R_p(M): distinct tuples a of length ||p|| with M |= R_p(a)."""
    arity = M.signature.arity(name)
    posmap, m = _collapsed(partition, arity)
    out = set()
    for abar in itertools.permutations(M.domain(), m):
        t = tuple(abar[posmap[i]] for i in range(arity))
        if M.has_fact(name, t):
            out.add(abar)
    return out


def ac_distance(M, N):
    """d(M,N) = sum over Index of |DH(M) symdiff DH(N)| / n^||p||, exact."""
    if M.signature != N.signature or M.n != N.n:
        raise InvalidArgument("structures must share signature and domain")
    total = Fraction(0)
    for name, partition in index_entries(M.signature):
        m = len(partition)
        delta = dh_set(M, name, partition) ^ dh_set(N, name, partition)
        total += Fraction(len(delta), M.n ** m)
    return total


def distance_bound_check(M, N):
    """Check dist <= (r!)^2 * 2^r * d exactly; returns a report dict."""
    r = M.signature.r
    lhs = dist(M, N)
    d = ac_distance(M, N)
    rhs = Fraction(factorial(r) ** 2 * 2 ** r) * d
    return {"dist": lhs, "d": d, "bound_rhs": rhs, "holds": lhs <= rhs}


def template_diff(T1, T2):
    """{A : Ch_{T1}(A) != Ch_{T2}(A)} by canonical set equality."""
    if T1.property.signature != T2.property.signature or T1.n != T2.n:
        raise InvalidArgument("templates must share signature and domain")
    return {A for A in T1.subsets if T1.choices.get(A) != T2.choices.get(A)}


def template_dist(T1, T2):
    return Fraction(len(template_diff(T1, T2)),
                    comb(T1.n, T1.property.signature.r))


def transfer_subpattern(C, G, D):
    """Given G a full subpattern of C and D H-random on the same domain,
    build G' a full subpattern of D with dist(G,G') <= template_dist(C,D).

    Outside the template diff the diagram of G is kept; inside it the
    id-least member of Ch_D(A) is chosen.
    """
    if not is_full_subpattern(G, C):
        raise InvalidArgument("G is not a full subpattern of C")
    delta = template_diff(C, D)
    entries = []
    for A in D.subsets:
        if A in delta:
            p = min(D.choices[A], key=lambda t: t.facts)
        else:
            p = qftp(G, A)
        entries.append(LocatedType(A, p))
    G2 = merge_entries(entries, n=G.n, signature=G.signature)
    if G2 is None:
        raise AssertionError("transfer merge failed on an H-random target")
    if not is_member(D.property, G2):
        raise AssertionError("transferred subpattern left the property")
    if dist(G, G2) > template_dist(C, D):
        raise AssertionError("transfer exceeded the distance guarantee")
    return G2


def closeness_inequality_check(C, C2):
    """sub(C) <= sub(C2) * |S_r(H)|^(delta * C(n,r)) with delta the template
    distance; C2 must be error-free. Exact big-integer comparison."""
    if not is_error_free(C2):
        raise InvalidArgument("C2 must be error-free")
    delta = template_dist(C, C2)
    n = C.n
    r = C.property.signature.r
    exponent = delta * comb(n, r)  # an exact integer by construction
    assert exponent.denominator == 1
    base = len(realized_type_space(C.property))
    lhs, _ = sub_count(C)
    rhs = sub_count(C2)[0] * base ** exponent.numerator
    return {"lhs": lhs, "rhs": rhs, "delta": delta, "holds": lhs <= rhs}
