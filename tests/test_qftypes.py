import itertools

import pytest

from hereditary.diagrams import LocatedType
from hereditary.errors import BudgetExceeded, InvalidArgument
from hereditary.properties import realized_type_space
from hereditary.qftypes import (QfType, atoms, qftp, type_by_id,
                                type_from_structure, type_space)
from hereditary.structures import Signature, Structure

from helpers import DIGRAPH_SIG, random_structure, seeded
from test_mask_kernel import FAMILIES, MIXED


def test_atoms_digraph():
    # E/2 with r=2: maps (1,1),(1,2),(2,1),(2,2) in deterministic order
    assert atoms(DIGRAPH_SIG) == (("E", (1, 1)), ("E", (1, 2)),
                                  ("E", (2, 1)), ("E", (2, 2)))


def test_type_space_size_and_ids():
    space = type_space(DIGRAPH_SIG)
    assert len(space) == 16
    assert [p.id() for p in space] == ["t%d" % i for i in range(16)]
    # ids are stable: the list index equals the id number
    for i, p in enumerate(space):
        assert type_by_id(DIGRAPH_SIG, "t%d" % i) == p


def test_type_space_budget():
    sig = Signature([("E", 2), ("F", 2), ("G", 2), ("H", 2), ("I", 2), ("J", 2)])
    with pytest.raises(BudgetExceeded):
        type_space(sig)  # 2^24 over the default limit


def test_metric_space_size():
    sig = Signature([("R%d" % i, 2) for i in (1, 2, 3)])
    assert len(type_space(sig)) == 2 ** 12


def test_qftp_round_trip():
    rng = seeded(3)
    for _ in range(20):
        M = random_structure(DIGRAPH_SIG, 4, rng)
        for abar in ((1, 2), (3, 1), (2, 4)):
            p = qftp(M, abar)
            # realizing structure carries the same type at (1..r)
            assert type_from_structure(p.realizing_structure()) == p


def test_qftp_requires_distinct():
    M = Structure(DIGRAPH_SIG, 3)
    with pytest.raises(InvalidArgument):
        qftp(M, (1, 1))
    with pytest.raises(InvalidArgument):
        qftp(M, (1, 4))


def test_fact_lookup():
    M = Structure(DIGRAPH_SIG, 2, {"E": [(1, 2), (2, 2)]})
    p = qftp(M, (1, 2))
    assert p.fact("E", (1, 2))
    assert not p.fact("E", (2, 1))
    assert p.fact("E", (2, 2))
    assert not p.fact("E", (1, 1))


def test_type_by_id_validation():
    with pytest.raises(InvalidArgument):
        type_by_id(DIGRAPH_SIG, "x3")
    with pytest.raises(InvalidArgument):
        type_by_id(DIGRAPH_SIG, "t16")


@pytest.mark.parametrize("name", sorted({**FAMILIES, **MIXED}))
def test_cached_hashes_are_the_tuple_hashes(name):
    # a hash cached at construction has the value the tuple hash had, so
    # every set and dict of types iterates in the same order
    H = {**FAMILIES, **MIXED}[name]()
    sig = H.signature
    assert hash(sig) == hash(sig.relations)
    points = tuple(range(1, sig.r + 2))
    for p in realized_type_space(H):
        assert hash(p) == hash((p.signature, p.r, p.facts))
        for A in itertools.combinations(points, sig.r):
            located = LocatedType(A, p)
            assert hash(located) == hash((located.support, located.qftype))
