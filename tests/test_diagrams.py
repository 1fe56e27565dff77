import itertools

import pytest

from hereditary.diagrams import (LocatedType, SyntacticDiagram, diagram,
                                 is_error, is_satisfiable, merge_entries, span,
                                 type_diagram, witness_structure)
from hereditary.errors import InvalidArgument
from hereditary.qftypes import qftp, type_by_id
from hereditary.structures import Structure

from helpers import DIGRAPH_SIG, random_structure, seeded


def _lt(support, tid):
    return LocatedType(support, type_by_id(DIGRAPH_SIG, tid))


def test_located_type_canonicalization():
    p = type_by_id(DIGRAPH_SIG, "t4")
    assert LocatedType((3, 1), p).support == (1, 3)
    with pytest.raises(InvalidArgument):
        LocatedType((1, 2, 3), p)


def test_type_diagram_round_trip():
    rng = seeded(11)
    for _ in range(15):
        M = random_structure(DIGRAPH_SIG, 4, rng)
        sigma = type_diagram(M)
        assert sigma.is_m_diagram()
        assert len(sigma) == 6
        assert is_satisfiable(sigma)
        # witness realizes the diagram exactly (Obs: N satisfies sigma^N)
        assert type_diagram(witness_structure(sigma)) == sigma


def test_merge_conflict_gives_none():
    # E(1,2) true in one pair type, false in an overlapping assertion
    p_arc = qftp(random_structure(DIGRAPH_SIG, 2, seeded(0), density=0), (1, 2))
    arc = _lt((1, 2), "t4")       # E(1,2) only
    empty = _lt((1, 2), "t0")     # no facts
    assert merge_entries([arc, empty]) is None
    assert merge_entries([arc, arc]) is not None
    del p_arc


def test_error_membership():
    arc = _lt((1, 2), "t4")
    empty = _lt((1, 2), "t0")
    bad = SyntacticDiagram([arc, empty])
    with pytest.raises(InvalidArgument):
        is_error(bad)  # two entries on one support: not an m-diagram
    good = SyntacticDiagram([arc])
    assert not is_error(good)
    assert not is_error(SyntacticDiagram(()))  # empty diagram never an error


def test_span_enumerates_sub_diagrams():
    entries = [_lt((1, 2), "t0"), _lt((1, 2), "t4"),
               _lt((1, 3), "t0"), _lt((2, 3), "t0")]
    diagrams = span(entries)
    # empty + 4 singletons + 2 full 3-point diagrams
    assert SyntacticDiagram(()) in diagrams
    sizes = sorted(len(d) for d in diagrams)
    assert sizes == [0, 1, 1, 1, 1, 3, 3]
    for d in diagrams:
        assert d.is_m_diagram()


def test_satisfiable_is_not_error_over_a_span():
    # a loop on point 1 in the pair type on {1,2} disagrees with the
    # loop-free types on {1,3}, so some 3-point diagrams are errors
    loop = qftp(Structure(DIGRAPH_SIG, 2, {"E": [(1, 1)]}), (1, 2))
    empty = type_by_id(DIGRAPH_SIG, "t0")
    entries = [LocatedType((1, 2), loop), LocatedType((1, 2), empty),
               LocatedType((1, 3), empty), LocatedType((2, 3), empty)]
    diagrams = span(entries)
    assert any(map(is_error, diagrams))
    for s in diagrams:
        assert is_satisfiable(s) == (not is_error(s))
    empty_diagram = SyntacticDiagram(())
    assert is_satisfiable(empty_diagram) is True
    with pytest.raises(InvalidArgument):
        witness_structure(empty_diagram)


def test_diagram_accessor():
    M = random_structure(DIGRAPH_SIG, 4, seeded(5))
    for A in itertools.combinations(range(1, 5), 2):
        d = diagram(M, A)
        assert d.support == A
        assert d.qftype == qftp(M, A)
