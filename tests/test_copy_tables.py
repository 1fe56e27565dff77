"""Copy-table membership against the brute-force matching path.

`is_member` and `enumerate_members` look every point subset up in the
property's tables of labeled copies. `HereditaryProperty.entry_matches`
still matches each entry by induced-substructure isomorphism or by a
non-induced embedding, and is the oracle here.
"""

import itertools

from hypothesis import given, settings, strategies as st

from hereditary import properties
from hereditary.instances import colored, digraphs, metric, mixed, triples
from hereditary.properties import (INDUCED, NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, copy_table,
                                   count_members, enumerate_members,
                                   is_member, realized_type_space)
from hereditary.structures import Signature, Structure

from helpers import random_structure, seeded


def oracle(H, M):
    return not any(H.entry_matches(f, M) for f in H.forbidden)


# name -> (property, largest n whose members are all enumerated, types
# that shape the random structures, relations filled at random on top).
# mixed stops at n = 2: E is free, so it has about 3 * 10^9 members on
# three points.
FAMILIES = {
    "metric-r3": (lambda: metric.metric_instance(3), 4, None, ()),
    "metric-r4": (lambda: metric.metric_instance(4), 4, None, ()),
    "digraph-k2": (lambda: digraphs.digraph_instance(2), 4, None, ()),
    "digraph-k3": (lambda: digraphs.digraph_instance(3), 4, None, ()),
    "triples": (triples.triples_instance, 4, None, ()),
    "colored": (lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]), 4, None, ()),
    "mixed": (mixed.mixed_instance, 2,
              lambda: realized_type_space(metric.metric_instance(3)), ("E",)),
}


def _flip(rels, signature, n, rng):
    """Toggle one random fact: it may be a loop or one direction of a pair."""
    name, arity = rng.choice(signature.relations)
    t = tuple(rng.randint(1, n) for _ in range(arity))
    rels.setdefault(name, set()).symmetric_difference_update({t})


def _shaped(H, types, extra, n, rng):
    """A type drawn from a random pool of realized types on every subset of
    the types' size, random facts of the `extra` relations, then up to two
    flipped facts."""
    rels = {}
    pool = rng.sample(types, rng.randint(1, len(types)))
    for A in itertools.combinations(range(1, n + 1), types[0].r):
        N = rng.choice(pool).realizing_structure()
        for name, ts in N.relations.items():
            rels.setdefault(name, set()).update(
                tuple(A[x - 1] for x in t) for t in ts)
    for name in extra:
        arity = H.signature.arity(name)
        rels[name] = {t for t in itertools.product(range(1, n + 1),
                                                   repeat=arity)
                      if rng.random() < 0.2}
    for _ in range(rng.randrange(3)):
        _flip(rels, H.signature, n, rng)
    return Structure(H.signature, n, rels)


def _random_batch(name, n):
    """A fixed seeded batch: uniform structures of three densities, then
    structures shaped by realized types, most of them members or one fact
    away from being one."""
    make, _, types, extra = FAMILIES[name]
    H = make()
    types = types() if types else realized_type_space(H)
    rng = seeded("%s-%d" % (name, n))
    batch = [random_structure(H.signature, n, rng, density)
             for density in (0.05, 0.2, 0.5) for _ in range(4)]
    batch += [_shaped(H, types, extra, n, rng) for _ in range(24)]
    return H, batch


def _relabelings(M):
    for perm in itertools.permutations(M.domain()):
        yield Structure(M.signature, M.n,
                        {name: [tuple(perm[x - 1] for x in t) for t in ts]
                         for name, ts in M.relations.items()})


def test_members_agree_with_entry_matches():
    # entry_matches does not see the labels of M, so it runs on one member
    # of each relabeling class; the whole class must be enumerated.
    for name, (make, n_max, _, _) in FAMILIES.items():
        H = make()
        for n in range(1, n_max + 1):
            members = list(enumerate_members(H, n))
            member_set = set(members)
            assert len(member_set) == len(members)
            seen = set()
            for M in members:
                assert is_member(H, M)
                if M not in seen:
                    assert oracle(H, M), (name, M)
                    orbit = set(_relabelings(M))
                    assert orbit <= member_set
                    seen |= orbit


def test_random_structures_agree_with_entry_matches():
    for name, (_, n_max, _, _) in FAMILIES.items():
        for n in range(1, 7):
            H, batch = _random_batch(name, n)
            members = set(enumerate_members(H, n)) if n <= n_max else None
            for M in batch:
                want = oracle(H, M)
                assert is_member(H, M) == want, (name, M)
                if members is not None:
                    assert (M in members) == want, (name, M)


def test_batches_hold_members_and_non_members():
    # the batches above test both answers, loops and one-way tuples
    for name in FAMILIES:
        for n in (4, 6):
            H, batch = _random_batch(name, n)
            verdicts = {is_member(H, M) for M in batch}
            assert verdicts == {True, False}, (name, n)
            facts = [(t, ts) for M in batch for ts in M.relations.values()
                     for t in ts]
            assert any(len(set(t)) < len(t) for t, _ in facts)
            assert any(set(itertools.permutations(t)) - ts
                       for t, ts in facts)


# Random small properties over a binary signature with a unary relation,
# so that every entry can sit on the full signature or on either
# one-relation reduct.
SIG = Signature([("E", 2), ("P", 1)])
REDUCTS = [SIG, Signature([("E", 2)]), Signature([("P", 1)])]


def _all_structures(signature, n):
    """Every labeled structure on {1..n}: the raw fact space."""
    facts = [(name, t) for name, arity in signature.relations
             for t in itertools.product(range(1, n + 1), repeat=arity)]
    for mask in range(1 << len(facts)):
        rels = {}
        for i, (name, t) in enumerate(facts):
            if mask >> i & 1:
                rels.setdefault(name, []).append(t)
        yield Structure(signature, n, rels)


@st.composite
def small_entry(draw):
    signature = draw(st.sampled_from(REDUCTS))
    n = draw(st.integers(min_value=1, max_value=3))
    facts = [(name, t) for name, arity in signature.relations
             for t in itertools.product(range(1, n + 1), repeat=arity)]
    chosen = draw(st.sets(st.sampled_from(facts), max_size=4))
    rels = {}
    for name, t in chosen:
        rels.setdefault(name, []).append(t)
    match = draw(st.sampled_from([None, INDUCED, NON_INDUCED]))
    return ForbiddenEntry(Structure(signature, n, rels), match)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_entry(), min_size=1, max_size=3),
       st.sampled_from([INDUCED, NON_INDUCED]))
def test_count_members_matches_raw_brute_force(entries, mode):
    H = HereditaryProperty(SIG, entries, mode=mode)
    for n in (1, 2, 3):
        brute = sum(1 for M in _all_structures(SIG, n) if oracle(H, M))
        assert count_members(H, n) == brute


def test_metric_r5_types_and_triangles():
    # Set-up of this instance alone used to take about 15 s.
    H = HereditaryProperty(metric.signature(5), metric.forbidden_entries(5))
    space = realized_type_space(H)
    assert set(space) == {metric.distance_type(5, i) for i in range(1, 6)}
    assert len(space) == 5
    triangles = sum(1 for d in itertools.product(range(1, 6), repeat=3)
                    if 2 * max(d) <= sum(d))
    assert count_members(metric.metric_instance(5), 3) == triangles == 95


def test_metric_wide_pair_steps_count_the_triangles():
    # The step of a pair holds its 2r facts, 12 and 14 here, and is checked:
    # its 2^12 and 2^14 choices are each tested once.
    for r, want in ((6, 156), (7, 238)):
        H = metric.metric_instance(r)
        triangles = sum(1 for d in itertools.product(range(1, r + 1),
                                                     repeat=3)
                        if 2 * max(d) <= sum(d))
        assert count_members(H, 3) == triangles == want
        assert sum(1 for _ in enumerate_members(H, 3)) == triangles


def _fresh(H):
    """The same property with no tables built yet."""
    return HereditaryProperty(H.signature, H.forbidden, mode=H.mode)


def test_tables_are_built_per_size_on_first_use():
    # T_11 has 11! relabelings and no symmetry: it is never compiled, and
    # the pair types never build a table above two points.
    H = _fresh(digraphs.digraph_instance(10))
    assert set(realized_type_space(H)) == {digraphs.P1, digraphs.P2,
                                           digraphs.P3, digraphs.P4}
    assert H._copy_tables[3] is None and H._copy_tables[11] is None
    T = digraphs.transitive_tournament
    assert is_member(H, T(10)) and not is_member(H, T(11))
    induced, non_induced, direct = copy_table(H, 11)
    assert (induced, non_induced) == ((), ())
    assert [f.structure for f in direct] == [T(11)]


def test_uncompiled_entries_agree_with_tables(monkeypatch):
    # With only 1- and 2-point entries compiled, every larger entry goes
    # through entry_matches inside is_member and enumerate_members.
    expected = {}
    for name, (make, n_max, _, _) in FAMILIES.items():
        H = _fresh(make())
        expected[name] = (
            [list(enumerate_members(H, n))
             for n in range(1, min(n_max, 3) + 1)],
            [[is_member(H, M) for M in _random_batch(name, n)[1]]
             for n in range(1, 6)])
    monkeypatch.setattr(properties, "COPY_LIMIT", 2)
    for name, (make, n_max, _, _) in FAMILIES.items():
        H = _fresh(make())
        assert any(copy_table(H, m)[2] for m in H._copy_tables)
        members, verdicts = expected[name]
        assert [list(enumerate_members(H, n))
                for n in range(1, min(n_max, 3) + 1)] == members, name
        assert [[is_member(H, M) for M in _random_batch(name, n)[1]]
                for n in range(1, 6)] == verdicts, name
