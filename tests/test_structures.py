import itertools
from fractions import Fraction

import pytest

from hereditary.errors import InvalidArgument
from hereditary.structures import (Signature, Structure, copies, density,
                                   embeds_noninduced, induced_substructure,
                                   is_isomorphic)

from helpers import DIGRAPH_SIG, TRIPLES_SIG, random_permuted, random_structure, seeded


def test_signature_validation():
    with pytest.raises(InvalidArgument):
        Signature([])
    with pytest.raises(InvalidArgument):
        Signature([("E", 2), ("E", 3)])
    with pytest.raises(InvalidArgument):
        Signature([("E", 0)])
    sig = Signature([("E", 2), ("F", 3)])
    assert sig.r == 3
    assert sig.arity("E") == 2


def test_structure_validation():
    with pytest.raises(InvalidArgument):
        Structure(DIGRAPH_SIG, 2, {"E": [(1, 3)]})
    with pytest.raises(InvalidArgument):
        Structure(DIGRAPH_SIG, 2, {"E": [(1,)]})
    with pytest.raises(InvalidArgument):
        Structure(DIGRAPH_SIG, 2, {"F": [(1, 2)]})
    M = Structure(DIGRAPH_SIG, 2, {"E": [(1, 2), (1, 2)]})
    assert M.fact_count() == 1


def test_reduct():
    sig = Signature([("E", 2), ("F", 2)])
    M = Structure(sig, 2, {"E": [(1, 2)], "F": [(2, 1)]})
    R = M.reduct(Signature([("E", 2)]))
    assert R.relations == {"E": frozenset({(1, 2)})}
    with pytest.raises(InvalidArgument):
        M.reduct(Signature([("G", 2)]))


def test_induced_substructure():
    M = Structure(DIGRAPH_SIG, 4, {"E": [(1, 2), (2, 3), (3, 4), (4, 4)]})
    sub = induced_substructure(M, (2, 4))
    assert sub.n == 2
    assert sub.relations["E"] == frozenset({(2, 2)})


def test_isomorphism_is_equivalence_on_random_structures():
    rng = seeded(7)
    for sig, n in ((DIGRAPH_SIG, 4), (TRIPLES_SIG, 3)):
        pool = [random_structure(sig, n, rng) for _ in range(12)]
        for M in pool:
            assert is_isomorphic(M, M)
            P = random_permuted(M, rng)
            ok, mapping = is_isomorphic(M, P, witness=True)
            assert ok
            # the witness really is an isomorphism
            for name, ts in M.relations.items():
                for t in ts:
                    assert tuple(mapping[x] for x in t) in P.relations[name]
        for M, N in itertools.combinations(pool, 2):
            assert is_isomorphic(M, N) == is_isomorphic(N, M)


def test_isomorphism_respects_fact_counts():
    M = Structure(DIGRAPH_SIG, 3, {"E": [(1, 2)]})
    N = Structure(DIGRAPH_SIG, 3, {"E": [(1, 2), (2, 1)]})
    assert not is_isomorphic(M, N)


def test_isomorphism_reversed_star():
    # regression: equal degree multisets in different serialization orders
    sig = Signature([("R1", 2), ("R3", 2)])
    F = Structure(sig, 3, {"R1": [(1, 2), (1, 3), (2, 1), (3, 1)],
                           "R3": [(2, 3), (3, 2)]})
    M = Structure(sig, 3, {"R1": [(1, 3), (3, 1), (2, 3), (3, 2)],
                           "R3": [(1, 2), (2, 1)]})
    assert is_isomorphic(M, F)


def test_embeds_noninduced():
    path = Structure(DIGRAPH_SIG, 3, {"E": [(1, 2), (2, 3)]})
    tri = Structure(DIGRAPH_SIG, 3, {"E": [(1, 2), (2, 3), (1, 3)]})
    assert embeds_noninduced(path, tri)
    assert not embeds_noninduced(tri, path)
    # reduct signatures embed into richer ones
    loop = Structure(Signature([("E", 2)]), 1, {"E": [(1, 1)]})
    rich = Structure(Signature([("E", 2), ("F", 2)]), 2, {"E": [(2, 2)]})
    assert embeds_noninduced(loop, rich)


def test_copies_and_density():
    tri = Structure(DIGRAPH_SIG, 3, {"E": [(1, 2), (2, 3), (1, 3)]})
    M = Structure(DIGRAPH_SIG, 4,
                  {"E": [(1, 2), (2, 3), (1, 3), (1, 4)]})
    assert copies(tri, M) == [frozenset({1, 2, 3})]
    assert density(tri, M) == Fraction(1, 4)
    assert density(M, tri) == 0
