"""Colored k-uniform set systems: every k-subset carries exactly one color.

Signature: one k-ary relation per color. Members are complete symmetric
colorings avoiding the forbidden value-colorings. The family has no
closed-form oracle.
"""

import itertools

from ..errors import InvalidArgument
from ..properties import (INDUCED, ForbiddenEntry, HereditaryProperty,
                          universe_entries)
from ..qftypes import type_from_structure
from ..structures import Signature, Structure
from ..templates import Template


def signature(k, colors):
    return Signature([("c%s" % c, k) for c in colors])


def coloring_structure(k, colors, n, coloring):
    """Structure from {k-subset: color}."""
    rels = {}
    for e, c in coloring.items():
        rels.setdefault("c%s" % c, []).extend(itertools.permutations(e))
    return Structure(signature(k, colors), n, rels)


def colored_instance(k, colors, forbidden_colorings):
    """forbidden_colorings: list of (m, {k-subset of [m]: color})."""
    if not colors:
        raise InvalidArgument("need at least one color")
    # a k-subset carries the full permutation orbit of one color
    perms = list(itertools.permutations(range(1, k + 1)))
    entries = universe_entries(signature(k, colors),
                               [{("c%s" % c, t) for t in perms}
                                for c in colors])
    for m, coloring in forbidden_colorings:
        entries.append(ForbiddenEntry(
            coloring_structure(k, colors, m, coloring), INDUCED))
    return HereditaryProperty(signature(k, colors), entries, mode=INDUCED,
                              name="colored-k%d" % k)


def color_type(k, colors, c):
    """The k-point type whose k-subset carries color c."""
    return type_from_structure(
        coloring_structure(k, colors, k, {tuple(range(1, k + 1)): c}))


def psi(T, k, colors):
    """Set-coloring image: each k-subset's set of chosen colors."""
    by_type = {color_type(k, colors, c): c for c in colors}
    return {A: frozenset(by_type[p] for p in T.choices[A]) for A in T.subsets}


def psi_inverse(H, k, colors, n, set_coloring):
    choices = {}
    for A, cs in set_coloring.items():
        if not cs:
            raise InvalidArgument("set-coloring must be complete")
        choices[tuple(sorted(A))] = {color_type(k, colors, c) for c in cs}
    return Template(H, n, choices)


def all_one_triangle():
    """The standard forbidden pattern for the binary-color graph case."""
    return (3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
