"""JSON schemas for structures, properties, templates and type listings.

All elements are 1-based. Type ids are the stable "t<N>" ids from the
lex-ordered type space, so listings are byte-identical across runs. A
forbidden entry is a structure, a {"structure", "match"} pair, or a
universe entry {"signature", "allowed"}, each allowed fact set written as
the "relations" of a structure.
"""

import json

from .errors import InvalidArgument
from .properties import (INDUCED, NON_INDUCED, ForbiddenEntry,
                         HereditaryProperty, UniverseEntry)
from .qftypes import atoms, type_by_id
from .structures import Signature, Structure
from .templates import Template


def _fail(field, message):
    raise InvalidArgument("%s: %s" % (field, message))


def _expect(obj, field, kind, where):
    if field not in obj:
        _fail("%s.%s" % (where, field), "missing")
    if type(obj[field]) is not kind:  # exact: a bool is not an int
        _fail("%s.%s" % (where, field), "expected %s" % kind.__name__)
    return obj[field]


def _ints(value, where):
    """A JSON list of integers (not bools or floats) as a tuple."""
    if type(value) is not list or any(type(x) is not int for x in value):
        _fail(where, "expected a list of integers, got %s" % json.dumps(value))
    return tuple(value)


def signature_to_json(signature):
    return [{"name": name, "arity": arity} for name, arity in signature.relations]


def signature_from_json(data, where="signature"):
    if not isinstance(data, list) or not data:
        _fail(where, "expected a nonempty list of {name, arity}")
    rels = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            _fail("%s[%d]" % (where, i), "expected an object")
        rels.append((_expect(entry, "name", str, "%s[%d]" % (where, i)),
                     _expect(entry, "arity", int, "%s[%d]" % (where, i))))
    return Signature(rels)


def structure_to_json(M):
    return {"signature": signature_to_json(M.signature), "n": M.n,
            "relations": {name: sorted(list(t) for t in ts)
                          for name, ts in M.relations.items()}}


def structure_from_json(data, where="structure"):
    if not isinstance(data, dict):
        _fail(where, "expected an object")
    sig = signature_from_json(_expect(data, "signature", list, where),
                              where + ".signature")
    n = _expect(data, "n", int, where)
    rels = _relations_from_json(_expect(data, "relations", dict, where),
                                where + ".relations")
    return Structure(sig, n, rels)


def _relations_from_json(data, where):
    rels = {}
    for name, tuples in data.items():
        if not isinstance(tuples, list):
            _fail("%s.%s" % (where, name), "expected a list of tuples")
        rels[name] = [_ints(t, "%s.%s[%d]" % (where, name, i))
                      for i, t in enumerate(tuples)]
    return rels


def _relations_to_json(facts):
    rels = {}
    for name, t in facts:
        rels.setdefault(name, []).append(list(t))
    return rels


def universe_to_json(u):
    return {"signature": signature_to_json(u.signature),
            "allowed": [_relations_to_json(S)
                        for S in sorted(sorted(S) for S in u.allowed)]}


def universe_from_json(data, where="universe"):
    sig = signature_from_json(_expect(data, "signature", list, where),
                              where + ".signature")
    allowed = []
    for i, rels in enumerate(_expect(data, "allowed", list, where)):
        sub = "%s.allowed[%d]" % (where, i)
        if not isinstance(rels, dict):
            _fail(sub, "expected an object of relations")
        allowed.append({(name, t) for name, ts in
                        _relations_from_json(rels, sub).items() for t in ts})
    try:
        return UniverseEntry(sig, allowed)
    except InvalidArgument as exc:
        _fail(where, str(exc))


def property_to_json(H):
    forbidden = []
    for f in H.forbidden:
        if isinstance(f, UniverseEntry):
            forbidden.append(universe_to_json(f))
            continue
        entry = structure_to_json(f.structure)
        if f.match is not None:
            entry = {"structure": entry, "match": f.match}
        forbidden.append(entry)
    out = {"signature": signature_to_json(H.signature), "mode": H.mode,
           "forbidden": forbidden}
    if H.name:
        out["name"] = H.name
    return out


def property_from_json(data, where="property"):
    if not isinstance(data, dict):
        _fail(where, "expected an object")
    sig = signature_from_json(_expect(data, "signature", list, where),
                              where + ".signature")
    mode = data.get("mode", INDUCED)
    if mode not in (INDUCED, NON_INDUCED):
        _fail(where + ".mode", "must be %r or %r" % (INDUCED, NON_INDUCED))
    forbidden = []
    raw = _expect(data, "forbidden", list, where)
    for i, entry in enumerate(raw):
        sub = "%s.forbidden[%d]" % (where, i)
        if isinstance(entry, dict) and "allowed" in entry:
            forbidden.append(universe_from_json(entry, sub))
        elif isinstance(entry, dict) and "structure" in entry:
            forbidden.append(ForbiddenEntry(
                structure_from_json(entry["structure"], sub),
                entry.get("match")))
        else:
            forbidden.append(ForbiddenEntry(structure_from_json(entry, sub)))
    return HereditaryProperty(sig, forbidden, mode=mode, name=data.get("name"))


def _subset_key(A):
    return "[" + ",".join(str(x) for x in A) + "]"


def _subset_from_key(key, where):
    try:
        parts = json.loads(key)
    except ValueError:
        _fail(where, "malformed subset key %r" % key)
    return _ints(parts, "%s key %r" % (where, key))


def template_to_json(T, inline_property=True):
    choices = {}
    for A in T.subsets:
        choices[_subset_key(A)] = [p.id() for p in sorted(T.choices[A])]
    prop = property_to_json(T.property) if inline_property else (
        T.property.name or "property")
    return {"property": prop, "n": T.n, "choices": choices}


def template_from_json(data, where="template"):
    """A template with its property inline."""
    if not isinstance(data, dict):
        _fail(where, "expected an object")
    prop = data.get("property")
    if not isinstance(prop, dict):
        _fail(where + ".property", "inline property required")
    H = property_from_json(prop, where + ".property")
    n = _expect(data, "n", int, where)
    raw = _expect(data, "choices", dict, where)
    choices = {}
    for key, ids in raw.items():
        A = _subset_from_key(key, where + ".choices")
        if not isinstance(ids, list) or not ids:
            _fail("%s.choices.%s" % (where, key), "expected a nonempty id list")
        choices[A] = {type_by_id(H.signature, tid) for tid in ids}
    return Template(H, n, choices)


def colored_spec_from_json(data, where="spec"):
    """(k, colors, forbidden) for colored.colored_instance from {"k", "colors",
    "forbidden" (optional): [{"m", "coloring": {"[1,2]": color}}]}."""
    if not isinstance(data, dict):
        _fail(where, "expected an object")
    k = _expect(data, "k", int, where)
    colors = _expect(data, "colors", list, where)
    forbidden = []
    raw = _expect(data, "forbidden", list, where) if "forbidden" in data else []
    for i, entry in enumerate(raw):
        sub = "%s.forbidden[%d]" % (where, i)
        if not isinstance(entry, dict):
            _fail(sub, "expected an object")
        coloring = _expect(entry, "coloring", dict, sub)
        forbidden.append((_expect(entry, "m", int, sub),
                          {_subset_from_key(key, sub + ".coloring"): c
                           for key, c in coloring.items()}))
    return k, colors, forbidden


def type_listing(types):
    """[{"id": "t0", "facts": {"E(1,2)": true, ...}}, ...]"""
    out = []
    for p in types:
        facts = {}
        for (name, varmap), b in zip(atoms(p.signature), p.facts):
            facts["%s(%s)" % (name, ",".join(str(v) for v in varmap))] = b
        out.append({"id": p.id(), "facts": facts})
    return out


def dumps(data):
    """Deterministic rendering used by all reports."""
    return json.dumps(data, indent=2, sort_keys=True)


def load_path(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidArgument("%s: line %d: %s" % (path, exc.lineno, exc.msg))
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument("%s: cannot read: %s" % (path, exc))
