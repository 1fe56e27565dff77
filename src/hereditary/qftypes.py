"""Complete proper quantifier-free r-types and the type space S_r(L).

A type is the truth assignment over every atomic fact R(x_{i1},..,x_{il})
with variables drawn (with repetition) from x_1..x_r. Types are encoded as
boolean tuples aligned with a deterministic atom list, so lexicographic
order on the tuples gives the stable id order.
"""

import itertools
from functools import lru_cache

from .errors import BudgetExceeded, InvalidArgument
from .structures import Structure

DEFAULT_SPACE_LIMIT = 1 << 21


@lru_cache(maxsize=None)
def atoms(signature):
    """Deterministic list of (relation, variable-map) atoms over x_1..x_r."""
    out = []
    for name, arity in signature.relations:
        for varmap in itertools.product(range(1, signature.r + 1),
                                        repeat=arity):
            out.append((name, varmap))
    return tuple(out)


class QfType(object):
    """A complete proper quantifier-free r-type, r = signature.r."""

    __slots__ = ("signature", "r", "facts", "_hash")

    def __init__(self, signature, facts):
        facts = tuple(bool(b) for b in facts)
        if len(facts) != len(atoms(signature)):
            raise InvalidArgument("fact vector length mismatch")
        self.signature = signature
        self.r = signature.r
        self.facts = facts
        self._hash = hash((signature, self.r, facts))

    def fact(self, name, varmap):
        return self.facts[atom_index(self.signature)[(name, tuple(varmap))]]

    def id(self):
        """Stable id: position in the lex-ordered full type space."""
        value = 0
        for b in self.facts:
            value = (value << 1) | int(b)
        return "t%d" % value

    def realizing_structure(self):
        """The structure on {1..r} whose type over (1..r) is this type."""
        rels = {}
        for (name, varmap), b in zip(atoms(self.signature), self.facts):
            if b:
                rels.setdefault(name, []).append(varmap)
        return Structure(self.signature, self.r, rels)

    def __eq__(self, other):
        return (isinstance(other, QfType) and self.signature == other.signature
                and self.r == other.r and self.facts == other.facts)

    def __lt__(self, other):
        return self.facts < other.facts

    def __hash__(self):
        return self._hash

    def __repr__(self):
        true = [("%s(%s)" % (name, ",".join(map(str, vm))))
                for (name, vm), b in zip(atoms(self.signature), self.facts) if b]
        return "QfType[%s]{%s}" % (self.id(), ", ".join(true))


@lru_cache(maxsize=None)
def atom_index(signature):
    return {atom: i for i, atom in enumerate(atoms(signature))}


def qftp(M, abar):
    """The quantifier-free type of a tuple of r distinct elements of M."""
    abar = tuple(abar)
    r = M.signature.r
    if len(abar) != r or len(set(abar)) != r:
        raise InvalidArgument("need %d pairwise-distinct elements" % r)
    if any(a < 1 or a > M.n for a in abar):
        raise InvalidArgument("tuple out of domain")
    facts = []
    for name, varmap in atoms(M.signature):
        facts.append(M.has_fact(name, tuple(abar[v - 1] for v in varmap)))
    return QfType(M.signature, facts)


def type_from_structure(N):
    """The type realized by the identity enumeration (1..r) of an r-point N."""
    if N.n != N.signature.r:
        raise InvalidArgument("structure must have exactly r points")
    return qftp(N, tuple(range(1, N.n + 1)))


def type_space(signature):
    """S_r(L): every complete proper type, lex-ordered by fact vector.

    The list index equals the numeric part of each type's stable id. Raises
    BudgetExceeded above DEFAULT_SPACE_LIMIT types, counting the atoms
    before any is built.
    """
    num = sum(signature.r ** arity for _, arity in signature.relations)
    if num > DEFAULT_SPACE_LIMIT.bit_length() - 1:
        raise BudgetExceeded("type space has 2^%d elements, above the limit %d"
                             % (num, DEFAULT_SPACE_LIMIT))
    out = []
    for bits in range(1 << num):
        facts = [(bits >> (num - 1 - i)) & 1 == 1 for i in range(num)]
        out.append(QfType(signature, facts))
    return out


def type_by_id(signature, type_id):
    """Reconstruct a type from its stable id without materializing the space."""
    num = len(atoms(signature))
    if not (isinstance(type_id, str) and type_id[:1] == "t"
            and type_id[1:].isdecimal()):
        raise InvalidArgument("malformed type id %r" % (type_id,))
    bits = int(type_id[1:])
    if bits >= 1 << num:
        raise InvalidArgument("type id %r out of range" % type_id)
    facts = [(bits >> (num - 1 - i)) & 1 == 1 for i in range(num)]
    return QfType(signature, facts)
