"""Located types, canonical type-diagrams, syntactic m-diagrams, Err_l, Span.

Located types are canonicalized to the sorted enumeration of their support,
so a diagram is just a set of (support, type) pairs and choice sets are
plain sets of types. A syntactic m-diagram is in Err_l, l = m its support
size, when merging its entries' facts meets a conflict (is_error).
"""

import itertools
from functools import lru_cache

from .errors import InvalidArgument
from .qftypes import atoms, qftp
from .structures import Structure, induced_substructure


class LocatedType(object):
    """A type bound to the sorted enumeration of an r-subset of a domain."""

    __slots__ = ("support", "qftype", "_hash")

    def __init__(self, support, qftype):
        support = tuple(sorted(set(support)))
        if len(support) != qftype.r:
            raise InvalidArgument("support size must equal the type arity")
        self.support = support
        self.qftype = qftype
        self._hash = hash((support, qftype))

    def facts(self):
        """Instantiated facts: {(relation, element tuple): truth value}."""
        return located_facts(self.support, self.qftype)

    def __eq__(self, other):
        return (isinstance(other, LocatedType) and self.support == other.support
                and self.qftype == other.qftype)

    def __lt__(self, other):
        return (self.support, self.qftype.facts) < (other.support, other.qftype.facts)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%s@%s" % (self.qftype.id(), list(self.support))


@lru_cache(maxsize=200000)
def located_facts(support, qftype):
    out = {}
    for (name, varmap), b in zip(atoms(qftype.signature), qftype.facts):
        out[(name, tuple(support[v - 1] for v in varmap))] = b
    return out


class SyntacticDiagram(object):
    """A set of located types; support is the union of entry supports."""

    def __init__(self, entries):
        self.entries = frozenset(entries)
        support = set()
        for e in self.entries:
            support.update(e.support)
        self.support = tuple(sorted(support))

    def choice_sets(self):
        """Ch_sigma(A): entries grouped by support."""
        out = {}
        for e in self.entries:
            out.setdefault(e.support, set()).add(e.qftype)
        return out

    def is_m_diagram(self):
        """Exactly one entry per r-subset of the support."""
        if not self.entries:
            return True
        r = next(iter(self.entries)).qftype.r
        ch = self.choice_sets()
        for A in itertools.combinations(self.support, r):
            if len(ch.get(A, ())) != 1:
                return False
        return len(ch) == len(list(itertools.combinations(self.support, r)))

    def __eq__(self, other):
        return isinstance(other, SyntacticDiagram) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return "SyntacticDiagram(%s)" % sorted(self.entries)


def diagram(M, A):
    """Diag^M(A) as a canonical located type."""
    A = tuple(sorted(set(A)))
    if len(A) != M.signature.r:
        raise InvalidArgument("A must be an r-subset")
    return LocatedType(A, qftp(M, A))


def type_diagram(M):
    """Diag^tp(M): the canonical type-diagram, one entry per r-subset."""
    r = M.signature.r
    if M.n < r:
        raise InvalidArgument("structure smaller than r")
    return SyntacticDiagram(diagram(M, A)
                            for A in itertools.combinations(M.domain(), r))


def merge_entries(entries, n=None, signature=None):
    """Merge located types into one structure; None when inconsistent.

    The merged structure's domain is {1..n} (default: max support element);
    facts not mentioned by any entry are false.
    """
    table = {}
    support = set()
    for e in entries:
        if signature is None:
            signature = e.qftype.signature
        support.update(e.support)
        for fact, b in e.facts().items():
            prev = table.get(fact)
            if prev is None:
                table[fact] = b
            elif prev != b:
                return None
    if n is None:
        n = max(support) if support else 0
    rels = {}
    for (name, t), b in table.items():
        if b:
            rels.setdefault(name, []).append(t)
    return Structure(signature, n, rels)


def is_satisfiable(sigma):
    """Satisfiability of a syntactic m-diagram by direct fact-table merging.

    The empty diagram is satisfiable."""
    if not sigma.is_m_diagram():
        raise InvalidArgument("not a syntactic m-diagram")
    return not sigma.entries or merge_entries(sigma.entries) is not None


def witness_structure(sigma):
    """A structure N with Diag^tp(N[support]) = sigma, relabeled to {1..m};
    None when sigma is unsatisfiable."""
    if not sigma.is_m_diagram():
        raise InvalidArgument("not a syntactic m-diagram")
    if not sigma.entries:
        raise InvalidArgument("the empty diagram has no signature to build "
                              "a witness on")
    w = merge_entries(sigma.entries)
    return None if w is None else induced_substructure(w, sigma.support)


def is_error(sigma):
    """Membership in Err_l, l the support size of sigma: an unsatisfiable
    syntactic l-diagram.

    The empty diagram is a 0-diagram and never an error.
    """
    return not is_satisfiable(sigma)


def span(located_set):
    """Span(sigma): all subsets that are syntactic type-diagrams.

    Includes the empty diagram by convention.
    """
    located_set = set(located_set)
    if not located_set:
        return [SyntacticDiagram(())]
    r = next(iter(located_set)).qftype.r
    by_support = {}
    for e in located_set:
        by_support.setdefault(e.support, []).append(e)
    points = sorted(set(x for e in located_set for x in e.support))
    out = [SyntacticDiagram(())]
    for m in range(r, len(points) + 1):
        for V in itertools.combinations(points, m):
            groups = []
            complete = True
            for A in itertools.combinations(V, r):
                entries = by_support.get(A, [])
                if not entries:
                    complete = False
                    break
                groups.append(sorted(entries))
            if not complete:
                continue
            for combo in itertools.product(*groups):
                out.append(SyntacticDiagram(combo))
    return out
