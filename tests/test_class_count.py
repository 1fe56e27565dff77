"""count_members over isomorphism classes against the labeled stream, and
the paths that share its canonical key or its tables.

`count_members` extends one representative per class of H_{m-1} by the
point m and weighs each by its orbit. `enumerate_members` streams every
labeled member and is the oracle. The pairwise-isomorphism closure, the
linear scan of non-induced copies and the Structure-based H-randomness
oracle are the former code, kept here as oracles of their replacements.
"""

import itertools
import json
import time
from functools import lru_cache

import pytest

from hereditary import cli, jsonio, properties
from hereditary.errors import BudgetExceeded
from hereditary.instances import colored, digraphs, metric, mixed, triples
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, closure, copy_table,
                                   count_members, enumerate_members,
                                   is_member, realized_type_space)
from hereditary.structures import Signature, Structure, is_isomorphic
from hereditary.templates import (Template, choice_count,
                                  is_h_random_direct, r_subsets)

from helpers import DIGRAPH_SIG, seeded
from oracles import choice_functions, expanded, subpattern_of_choice

# name -> (property, largest n checked against the labeled stream). mixed
# stops at n = 2: E is free, so it has about 3 * 10^9 members on 3 points.
FAMILIES = {
    "metric-r3": (lambda: metric.metric_instance(3), 5),
    "metric-r4": (lambda: metric.metric_instance(4), 5),
    "digraph-k2": (lambda: digraphs.digraph_instance(2), 5),
    "digraph-k3": (lambda: digraphs.digraph_instance(3), 5),
    "triples": (triples.triples_instance, 5),
    "colored": (lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]), 5),
    "mixed": (mixed.mixed_instance, 2),
}


def _fresh(H):
    """The same property with no tables built yet."""
    return HereditaryProperty(H.signature, H.forbidden, mode=H.mode)


@lru_cache(maxsize=None)
def _labeled_counts(name):
    make, n_max = FAMILIES[name]
    H = make()
    return [sum(1 for _ in enumerate_members(H, n))
            for n in range(1, n_max + 1)]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_count_equals_labeled_stream(name):
    make, n_max = FAMILIES[name]
    H = _fresh(make())
    assert [count_members(H, n) for n in range(1, n_max + 1)] == \
        _labeled_counts(name)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_count_with_uncompiled_entries(name, monkeypatch):
    # only 1- and 2-point entries are compiled; larger entries go through
    # entry_matches inside the extension DFS
    monkeypatch.setattr(properties, "COPY_LIMIT", 2)
    make, n_max = FAMILIES[name]
    H = _fresh(make())
    counts = [count_members(H, n) for n in range(1, n_max + 1)]
    if H.k > 2:
        assert any(copy_table(H, m)[2] for m in H._copy_tables)
    assert counts == _labeled_counts(name)


def test_count_budget_raises():
    H = digraphs.digraph_instance(2)
    assert count_members(H, 5, budget=10 ** 5) == 9735
    with pytest.raises(BudgetExceeded):
        count_members(H, 5, budget=100)
    with pytest.raises(BudgetExceeded):
        count_members(metric.metric_instance(3), 6, budget=10 ** 4)


def test_count_pins_beyond_the_labeled_stream():
    # the labeled stream reaches metric r=3, n=6 only past the default
    # budget (2,653,828 members)
    start = time.time()
    assert count_members(digraphs.digraph_instance(2), 6) == 583907
    assert time.time() - start < 20
    assert count_members(metric.metric_instance(3), 6) == 2653828


def test_count_with_an_empty_non_induced_entry():
    # the empty 2-point structure embeds into every structure on 2 points
    H = HereditaryProperty(DIGRAPH_SIG, [
        ForbiddenEntry(Structure(DIGRAPH_SIG, 2), NON_INDUCED)])
    assert [count_members(H, n) for n in (1, 2, 3)] == [2, 0, 0]
    assert [sum(1 for _ in enumerate_members(H, n)) for n in (1, 2, 3)] == \
        [2, 0, 0]


def _linear_matches(H, m, x):
    """The former scan: every induced copy, then every non-induced copy,
    a universe entry standing for its bad classes (oracles.expanded)."""
    index = properties._fact_index(H.signature, m)
    for f in expanded(H.forbidden):
        F = f.structure
        if F.n != m:
            continue
        copies = {sum(1 << index[(name, tuple(perm[v - 1] for v in t))]
                      for name, t in F.facts())
                  for perm in itertools.permutations(range(1, m + 1))}
        if f.resolved_match(H.mode) == NON_INDUCED:
            if any(not c & ~x for c in copies):
                return True
        else:
            names = set(F.signature.names())
            relmask = sum(1 << i for (name, _), i in index.items()
                          if name in names)
            if x & relmask in copies:
                return True
    return False


def test_non_induced_index_matches_linear_scan():
    cases = [digraphs.digraph_instance(2), digraphs.digraph_instance(3),
             HereditaryProperty(DIGRAPH_SIG, [
                 ForbiddenEntry(Structure(DIGRAPH_SIG, 2), NON_INDUCED),
                 ForbiddenEntry(Structure(DIGRAPH_SIG, 3, {"E": [(1, 1)]}),
                                NON_INDUCED)])]
    rng = seeded(61)
    for H in cases:
        verdicts = set()
        for m in H._copy_tables:
            table = copy_table(H, m)
            assert table[1], m
            width = len(properties._fact_index(H.signature, m))
            xs = (range(1 << width) if width <= 12 else
                  [rng.getrandbits(width) & rng.getrandbits(width)
                   for _ in range(3000)])
            for x in xs:
                want = _linear_matches(H, m, x)
                assert properties._matches(table, x) == want, (m, x)
                verdicts.add(want)
        assert verdicts == {True, False}


def _pairwise_closure(H, K):
    """The former closure: each non-member against every kept one."""
    facts = [(name, t) for name, arity in H.signature.relations
             for t in itertools.product(range(1, K + 1), repeat=arity)]
    reps = []
    for mask in range(1 << len(facts)):
        rels = {}
        for i, (name, t) in enumerate(facts):
            if mask >> i & 1:
                rels.setdefault(name, []).append(t)
        M = Structure(H.signature, K, rels)
        if is_member(H, M):
            continue
        if not any(is_isomorphic(M, rep) for rep in reps):
            reps.append(M)
    return reps


def test_closure_matches_pairwise_version(monkeypatch):
    SIG = Signature([("E", 2), ("P", 1)])
    cases = [
        (digraphs.digraph_instance(2), 3),
        (HereditaryProperty(SIG, [Structure(SIG, 2, {"E": [(1, 2)]})]), 2),
        (HereditaryProperty(SIG, [Structure(SIG, 2, {"E": [(1, 2)],
                                                     "P": [(1,)]})],
                            mode=NON_INDUCED), 2),
    ]
    for H, K in cases:
        reps = closure(H, K)
        assert reps == _pairwise_closure(H, K)
    assert len(closure(digraphs.digraph_instance(2), 3)) == 98
    # 2^9 fact masks on 3 points against the budget
    monkeypatch.setattr(properties, "DEFAULT_ENUM_BUDGET", 511)
    with pytest.raises(BudgetExceeded):
        closure(digraphs.digraph_instance(2), 3)


def test_type_space_bound(monkeypatch):
    H = _fresh(mixed.mixed_instance())
    start = time.time()
    with pytest.raises(BudgetExceeded):
        realized_type_space(H)
    assert time.time() - start < 30
    monkeypatch.setattr(properties, "TYPE_SPACE_LIMIT", 3)
    assert len(realized_type_space(_fresh(metric.metric_instance(3)))) == 3
    with pytest.raises(BudgetExceeded):
        realized_type_space(_fresh(metric.metric_instance(4)))


def test_cli_types_of_mixed_exits_on_budget(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(jsonio.property_to_json(
        mixed.mixed_instance())))
    code = cli.main(["types", "--property", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "budget" in out["report"]["error"]


def _structure_oracle(T):
    """The former is_h_random_direct: one merged Structure per choice
    function."""
    for chi in choice_functions(T):
        N = subpattern_of_choice(T, chi)
        if N is None or not is_member(T.property, N):
            return False
    return True


def test_direct_oracle_matches_structure_merges():
    # mixed and the loop-allowed digraphs have templates whose choices
    # disagree on shared facts, so the conflict check is exercised
    loops = HereditaryProperty(digraphs.SIG, [ForbiddenEntry(
        digraphs.transitive_tournament(3), NON_INDUCED)], mode=NON_INDUCED)
    rng = seeded(62)
    verdicts = set()
    T = mixed.error_template()
    assert not is_h_random_direct(T) and not _structure_oracle(T)
    for H, n, draw in [
            (mixed.mixed_instance(), 4,
             lambda: {mixed.sample_type(rng)
                      for _ in range(rng.randint(1, 2))}),
            (mixed.mixed_instance(), 4,
             lambda: {rng.choice([mixed.q1(), mixed.q2()])}),
            (loops, 4, lambda: set(rng.sample(realized_type_space(loops),
                                              rng.randint(1, 3)))),
            (metric.metric_instance(3), 4,
             lambda: set(rng.sample(realized_type_space(
                 metric.metric_instance(3)), rng.randint(1, 2))))]:
        for _ in range(150):
            T = Template(H, n, {A: draw() for A in
                                r_subsets(n, H.signature.r)})
            if choice_count(T) > 2000:
                continue
            want = _structure_oracle(T)
            assert is_h_random_direct(T) == want, T
            verdicts.add(want)
    assert verdicts == {True, False}
