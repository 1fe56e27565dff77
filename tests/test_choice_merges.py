"""sub_count, full_subpatterns and detect_errors against their former paths.

The former paths are kept here as oracles: sub counts the choice functions
whose merge_entries structure exists (subpattern_of_choice is not None),
the full subpatterns are those structures in choice-function order, and the
error witnesses come from every pair of r-subsets with a size test on
their union. The templates are seeded: choice sets of the loop-allowed
digraphs (T_3 forbidden, loops free), whose pairs through a point can
disagree on its loop, at n = 3 and 4; mixed arity templates at n = 4 and
5; and mixed.error_template().
"""

import itertools

import pytest

from hereditary.diagrams import LocatedType, merge_entries
from hereditary.errors import BudgetExceeded
from hereditary.instances import digraphs, metric, mixed
from hereditary.properties import (NON_INDUCED, ForbiddenEntry,
                                   HereditaryProperty, realized_type_space)
from hereditary.properties import _fact_index
from hereditary.qftypes import QfType
from hereditary.templates import (DEFAULT_CHI_BUDGET, Template, choice_count,
                                  detect_errors, error_pairs,
                                  full_subpatterns, has_low_facts,
                                  is_h_random_direct, located_agree,
                                  r_subsets, sub_count)

from helpers import seeded
from oracles import choice_functions, subpattern_of_choice


def loop_digraphs():
    return HereditaryProperty(digraphs.SIG, [ForbiddenEntry(
        digraphs.transitive_tournament(3), NON_INDUCED)], mode=NON_INDUCED)


def former_sub(T):
    return sum(1 for chi in choice_functions(T)
               if subpattern_of_choice(T, chi) is not None)


def former_full_subpatterns(T):
    out = []
    for chi in choice_functions(T):
        N = subpattern_of_choice(T, chi)
        if N is not None:
            out.append(N)
    return out


def former_errors(T):
    """Every pair of r-subsets, in order, with the error-window size test."""
    signature = T.property.signature
    r = signature.r
    if not any(has_low_facts(p) for A in T.subsets for p in T.choices[A]):
        return []
    seen = set()
    out = []
    for A1, A2 in itertools.combinations(T.subsets, 2):
        union = tuple(sorted(set(A1) | set(A2)))
        if not (r < len(union) < 2 * r):
            continue
        for p in sorted(T.choices[A1]):
            for q in sorted(T.choices[A2]):
                if not located_agree(signature, T.n, A1, p, A2, q):
                    if union not in seen:
                        seen.add(union)
                        out.append((union, (A1, p), (A2, q)))
    return out


def random_templates(H, types, n, count, seed, most=3, base=()):
    """Seeded templates: each choice set is one of `base` (when given) and
    up to `most` random types."""
    rng = seeded(seed)
    r = H.signature.r
    out = []
    for _ in range(count):
        choices = {}
        for A in r_subsets(n, r):
            choices[A] = rng.sample(types, rng.randint(1, most))
            if base:
                choices[A].append(rng.choice(base))
        out.append(Template(H, n, choices))
    return out


def loop_templates(n, count=40):
    H = loop_digraphs()
    return random_templates(H, realized_type_space(H), n, count, 500 + n)


def mixed_templates(n, count):
    # metric triangles with no E-fact or E(1,2,3): choices on two 3-subsets
    # disagree when they give their shared pair two distances. Every choice
    # set holds an all-ones triangle, so some choice function merges.
    types = [mixed.metric_type(i, j, k, e)
             for i, j, k in itertools.product((1, 2, 3), repeat=3)
             if metric.triangle_ok(i, j, k) for e in (None, {(1, 2, 3)})]
    return random_templates(mixed.mixed_instance(), types, n, count,
                            800 + n, most=2, base=types[:2])


CASES = {
    "loop-n3": lambda: loop_templates(3),
    "loop-n4": lambda: loop_templates(4),
    "mixed-n4": lambda: mixed_templates(4, 12),
    "error-template": lambda: [mixed.error_template()],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sub_count_is_the_former_slow_path(case):
    templates = CASES[case]()
    with_errors = [T for T in templates if detect_errors(T)]
    assert with_errors
    if case != "error-template":
        # the slow path is exercised with nonzero sub
        assert any(former_sub(T) for T in with_errors)
    for T in templates:
        value, error_free = sub_count(T)
        assert value == former_sub(T)
        assert error_free == (not detect_errors(T))


@pytest.mark.parametrize("case", sorted(CASES))
def test_full_subpatterns_are_the_former_list_as_a_set(case):
    for T in CASES[case]():
        got = full_subpatterns(T)
        want = former_full_subpatterns(T)
        assert len(got) == len(want) == len(set(got))
        assert set(got) == set(want)
        # in increasing order of fact masks
        index = _fact_index(T.property.signature, T.n)
        masks = [sum(1 << index[fact] for fact in G.facts()) for G in got]
        assert masks == sorted(masks)


@pytest.mark.parametrize("r", [2, 3])
def test_error_pairs_are_the_brute_force_window(r):
    for n in range(r, 8):
        subs = r_subsets(n, r)
        want = [(j, i) for i in range(len(subs)) for j in range(i)
                if r < len(set(subs[j]) | set(subs[i])) < 2 * r]
        assert list(error_pairs(n, r)) == sorted(want)


@pytest.mark.parametrize("case", sorted(CASES) + ["mixed-n5", "metric"])
def test_error_witnesses_are_the_former_all_pairs_walk(case):
    if case == "mixed-n5":
        templates = mixed_templates(5, 12)
    elif case == "metric":
        templates = [metric.all_low_template(3, 5), metric.all_low_template(4, 5)]
    else:
        templates = CASES[case]()
    for T in templates:
        assert detect_errors(T) == former_errors(T)


def agreeing_count(T):
    """The satisfiable choice functions of T, counted by backtracking over
    T.subsets with a table of which two located types merge (merge_entries
    of the pair): a choice function merges when every two of its located
    types do, since each fact lies on the points of one r-subset."""
    located = [[LocatedType(A, p) for p in sorted(T.choices[A])]
               for A in T.subsets]
    agree = {(a, b): merge_entries([a, b]) is not None
             for i, pool in enumerate(located) for a in pool
             for earlier in located[:i] for b in earlier}

    def count(i, chosen):
        if i == len(located):
            return 1
        return sum(count(i + 1, chosen + [a]) for a in located[i]
                   if all(agree[a, b] for b in chosen))
    return count(0, [])


def test_merges_budget_counts_partial_merges_not_choice_functions():
    # Six loop-digraph types per pair at n = 5: over 6 * 10^7 choice
    # functions, few of them satisfiable, so few partial merges are formed.
    H = loop_digraphs()
    rng = seeded(5151)
    space = realized_type_space(H)
    T = Template(H, 5, {A: rng.sample(space, 6) for A in r_subsets(5, 2)})
    assert choice_count(T) > DEFAULT_CHI_BUDGET
    value, error_free = sub_count(T)
    assert not error_free
    assert 0 < value == agreeing_count(T) == len(full_subpatterns(T))


def test_merges_budget_passes_templates_within_the_choice_budget():
    # Loop digraphs at n = 10 (45 pairs). Pairs 0..14 offer the arc either
    # way, (1, 10) a loop at 10 or none, every other pair the empty type;
    # so the only error is the loop at 10 against the pairs (i, 10), i > 1,
    # and half of the 2^16 choice functions merge. The joins form
    # 2^16 - 2 + 21 * 2^15 + 2 * 2^16 + 7 * 2^15 = 1,114,110 partial merges
    # in all, over the budget, though no single join forms more than 2^16.
    H = loop_digraphs()
    n = 10
    arcs = [QfType(H.signature, f) for f in [(0, 1, 0, 0), (0, 0, 1, 0)]]
    empty = QfType(H.signature, (0, 0, 0, 0))
    loop = QfType(H.signature, (0, 0, 0, 1))
    subsets = r_subsets(n, 2)
    choices = {A: [empty] for A in subsets}
    choices.update((A, arcs) for A in subsets[:15])
    choices[1, n] = [empty, loop]
    T = Template(H, n, choices)
    assert choice_count(T) == 2 ** 16 <= DEFAULT_CHI_BUDGET
    assert sub_count(T) == (2 ** 15, False)
    assert not is_h_random_direct(T)


def test_merges_budget_refuses_many_satisfiable_partial_merges():
    # digraph-k2 types have no fact on one point, so every partial merge
    # is satisfiable: 4^15 choice functions, more than the budget, with no
    # error, so sub_count takes its fast path while _merges refuses.
    H = digraphs.digraph_instance(2)
    space = realized_type_space(H)
    T = Template(H, 6, {A: space for A in r_subsets(6, 2)})
    assert sub_count(T) == (4 ** 15, True)
    with pytest.raises(BudgetExceeded):
        full_subpatterns(T)
    with pytest.raises(BudgetExceeded):
        is_h_random_direct(T)
