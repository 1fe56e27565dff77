import json

import pytest

from hereditary import jsonio
from hereditary.errors import BudgetExceeded, InvalidArgument
from hereditary.instances import colored, digraphs, metric, mixed, triples
from hereditary.properties import (UniverseEntry, count_members, is_member,
                                   realized_type_space)
from hereditary.qftypes import type_space
from hereditary.structures import Signature, Structure


def test_structure_round_trip():
    M = Structure(Signature([("E", 2)]), 4, {"E": [(1, 2), (2, 1), (4, 4)]})
    data = jsonio.structure_to_json(M)
    assert data["n"] == 4
    assert jsonio.structure_from_json(data) == M


def test_structure_diagnostics():
    with pytest.raises(InvalidArgument) as exc:
        jsonio.structure_from_json({"signature": [{"name": "E", "arity": 2}],
                                    "relations": {}})
    assert "structure.n" in str(exc.value)
    with pytest.raises(InvalidArgument):
        jsonio.structure_from_json({"signature": [], "n": 1, "relations": {}})
    with pytest.raises(InvalidArgument):
        jsonio.structure_from_json([1, 2])


@pytest.mark.parametrize("field, value", [("n", True), ("arity", True)])
def test_bools_are_not_integers(field, value):
    data = {"signature": [{"name": "P", "arity": 1}], "n": 1,
            "relations": {"P": [[1]]}}
    jsonio.structure_from_json(data)
    if field == "n":
        data["n"] = value
    else:
        data["signature"][0]["arity"] = value
    with pytest.raises(InvalidArgument) as exc:
        jsonio.structure_from_json(data)
    assert "expected int" in str(exc.value)


def test_property_round_trip():
    H = digraphs.digraph_instance(2)
    data = jsonio.property_to_json(H)
    H2 = jsonio.property_from_json(data)
    assert H2.signature == H.signature
    assert H2.mode == H.mode
    assert len(H2.forbidden) == len(H.forbidden)
    for f, g in zip(H.forbidden, H2.forbidden):
        assert f.structure == g.structure and f.match == g.match
    # behavior survives the round trip
    assert not is_member(H2, digraphs.transitive_tournament(3))


def test_property_round_trip_with_reduct_entries():
    H = metric.metric_instance(3)
    H2 = jsonio.property_from_json(jsonio.property_to_json(H))
    bad = metric.metric_space(3, 3, {(1, 2): 1, (1, 3): 1, (2, 3): 3})
    assert not is_member(H2, bad)


UNIVERSE_FAMILIES = {
    "metric-r3": lambda: metric.metric_instance(3),
    "triples": triples.triples_instance,
    "colored": lambda: colored.colored_instance(
        2, [1, 2], [colored.all_one_triangle()]),
    "mixed": mixed.mixed_instance,
}


def _universes(H):
    return [(f.signature, f.allowed) for f in H.forbidden
            if isinstance(f, UniverseEntry)]


@pytest.mark.parametrize("name", sorted(UNIVERSE_FAMILIES))
def test_universe_round_trip(name):
    H = UNIVERSE_FAMILIES[name]()
    data = jsonio.property_to_json(H)
    H2 = jsonio.property_from_json(json.loads(json.dumps(data)))
    assert jsonio.property_to_json(H2) == data
    assert len(_universes(H)) == 1 and _universes(H2) == _universes(H)
    if name == "mixed":
        # E is free: S_3 is over TYPE_SPACE_LIMIT, and 3-point members
        # run past a budget of 10^4, under both properties
        for G in (H, H2):
            with pytest.raises(BudgetExceeded):
                realized_type_space(G)
            with pytest.raises(BudgetExceeded):
                count_members(G, 3, budget=10 ** 4)
        n_max = 2
    else:
        assert realized_type_space(H2) == realized_type_space(H)
        n_max = 4
    for n in range(1, n_max + 1):
        assert count_members(H2, n) == count_members(H, n), n


def test_template_round_trip():
    T = metric.all_low_template(3, 3)
    data = jsonio.template_to_json(T)
    assert set(data["choices"]) == {"[1,2]", "[1,3]", "[2,3]"}
    T2 = jsonio.template_from_json(data)
    assert T2.n == T.n
    assert T2.choices == T.choices


def test_template_requires_property():
    data = {"property": "by-name", "n": 3, "choices": {}}
    with pytest.raises(InvalidArgument):
        jsonio.template_from_json(data)


def test_type_listing_stable():
    listing = jsonio.type_listing(type_space(Signature([("E", 2)])))
    assert listing[0]["id"] == "t0"
    assert listing[4]["facts"] == {"E(1,1)": False, "E(1,2)": True,
                                   "E(2,1)": False, "E(2,2)": False}
    assert jsonio.dumps(listing) == jsonio.dumps(listing)


def test_malformed_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(InvalidArgument) as exc:
        jsonio.load_path(str(p))
    assert "line 1" in str(exc.value)
