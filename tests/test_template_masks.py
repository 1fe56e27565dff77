"""Templates built from kernel masks against templates built from dicts.

A Template holds one block-kernel choice-set mask per r-subset. The
search builds its rows from the masks of its keys (Template.from_masks),
every other caller from a map of choice sets, and `choices` is derived
from the masks on first read. Here both forms of every near-extremal row
of the one-pass probe cases, and of every template of the orbit search's
brute force, are checked against each other and against the values the
dict form defines: equality, hash, canonical_key, repr, the JSON round
trip, is_h_random, sub_count, validate_template and restrict.
"""

import itertools
from math import prod

import pytest

from hereditary import jsonio
from hereditary.extremal import _SearchEngine, stability_probe
from hereditary.properties import realized_type_space
from hereditary.templates import (Template, block_checker, choice_count,
                                  is_h_random, restrict, sub_count,
                                  validate_template)

from test_one_pass_probe import CASES, IDS
from test_orbit_search import BRUTE, FAMILIES, brute_force


def dict_key(T):
    """canonical_key as the dict form defines it."""
    return tuple(tuple(sorted(p.facts for p in T.choices.get(A, ())))
                 for A in T.subsets)


def dict_repr(T):
    """repr as the dict form defines it."""
    parts = ", ".join("%s:%s" % (list(A), sorted(p.id() for p in T.choices[A]))
                      for A in T.subsets if A in T.choices)
    return "Template(n=%d, {%s})" % (T.n, parts)


def dict_restrict(T, A):
    """T[A] relabeled to {1..|A|}, built from T's choice sets."""
    pos = {a: i for i, a in enumerate(A, 1)}
    return Template(T.property, len(A), {
        tuple(pos[a] for a in S): T.choices[S]
        for S in itertools.combinations(A, T.property.signature.r)})


def assert_interchangeable(V, D, value):
    """V, built from masks, and D, built from a dict, are one template:
    complete, H-random and error-free with sub `value`."""
    H, n = D.property, D.n
    assert V == D and D == V and V.masks == D.masks
    assert V.choices == D.choices
    assert Template(H, n, V.choices) == V
    assert set(V.choices) == set(V.subsets)
    space = set(realized_type_space(H))
    assert all(types and types <= space for types in V.choices.values())
    key = dict_key(D)
    assert V.canonical_key() == D.canonical_key() == key
    assert hash(V) == hash(D) == hash((n, key))
    assert repr(V) == repr(D) == dict_repr(D)
    data = jsonio.template_to_json(V)
    assert jsonio.template_to_json(D) == data
    back = jsonio.template_from_json(data)
    assert back.choices == V.choices and dict_key(back) == key
    assert is_h_random(V) is is_h_random(D) is True
    assert sub_count(V) == sub_count(D) == (value, True)
    assert choice_count(V) == prod(map(len, V.choices.values())) == value
    assert validate_template(V) == validate_template(D) == (True, None)
    r = H.signature.r
    for A in itertools.combinations(range(1, n + 1), n - 1):
        if len(A) >= r:
            assert restrict(V, A) == restrict(D, A) == dict_restrict(D, A)


@pytest.mark.parametrize("make, n, eps", CASES, ids=IDS)
def test_probe_rows_equal_their_dict_templates(make, n, eps):
    H = make()
    rows = stability_probe(H, n, eps).near_extremal
    assert rows
    for V, value, _ in rows:
        assert_interchangeable(V, Template(H, n, dict(V.choices)), value)


@pytest.mark.parametrize("name, n", BRUTE, ids=["%s-n%d" % c for c in BRUTE])
def test_brute_force_templates_equal_their_mask_templates(name, n):
    H = FAMILIES[name]()
    engine = _SearchEngine(H, n)
    checker = block_checker(H)
    every = brute_force(H, n)
    assert every
    for D, value in every:
        # the engine's keys of D's choice sets, back through its masks
        leaf = tuple(engine._key(checker.set_mask(D.choices[A]))
                     for A in engine.subsets)
        assert_interchangeable(engine.template(leaf), D, value)


def test_choices_are_read_only_and_hold_no_empty_set():
    H = FAMILIES["digraph-k2"]()
    space = realized_type_space(H)
    T = Template(H, 3, {(1, 2): space[:2], (2, 3): ()})
    assert T.masks[1:] == (0, 0) and T.masks[0]
    assert T.choices == {(1, 2): frozenset(space[:2])}
    assert Template.from_masks(H, 3, T.masks) == T
    with pytest.raises(TypeError):
        T.choices[(1, 3)] = frozenset(space)
    with pytest.raises(AttributeError):
        T.choices = {}
