"""Colored k-uniform set systems: every k-subset carries exactly one color.

Signature: one k-ary relation per color. Members are complete symmetric
colorings avoiding the forbidden value-colorings. The independent density
path works directly on colorings (no template machinery) so the generic
search can be cross-checked against it.
"""

import itertools
from math import comb

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


def _contains_forbidden(coloring, n, k, forbidden_colorings):
    for m, pattern in forbidden_colorings:
        if m > n:
            continue
        for image in itertools.permutations(range(1, n + 1), m):
            ok = True
            for e, c in pattern.items():
                mapped = tuple(sorted(image[x - 1] for x in e))
                if coloring[mapped] != c:
                    ok = False
                    break
            if ok:
                return True
    return False


def max_product(k, colors, forbidden_colorings, n):
    """Brute force over good set-colorings: maximize the product of the
    per-subset color-set sizes. A set-coloring is good when every selection
    of one color per subset avoids the forbidden colorings.

    Independent of the template machinery.
    """
    subsets = list(itertools.combinations(range(1, n + 1), k))
    options = [tuple(c) for size in range(len(colors), 0, -1)
               for c in itertools.combinations(colors, size)]
    best = [0]
    winners = []

    def good(assignment):
        pools = [assignment[A] for A in subsets]
        for combo in itertools.product(*pools):
            coloring = dict(zip(subsets, combo))
            if _contains_forbidden(coloring, n, k, forbidden_colorings):
                return False
        return True

    for combo in itertools.product(options, repeat=len(subsets)):
        assignment = dict(zip(subsets, combo))
        product = 1
        for cs in combo:
            product *= len(cs)
        if product < best[0]:
            continue
        if good(assignment):
            if product > best[0]:
                best[0] = product
                winners.clear()
            if product == best[0]:
                winners.append(assignment)
    return best[0], winners


def max_density_log2(k, colors, forbidden_colorings, n):
    """max(n,P) as an exact rational when the max product is a power of 2."""
    from fractions import Fraction
    value, _ = max_product(k, colors, forbidden_colorings, n)
    exponent = value.bit_length() - 1
    if value != 1 << exponent:
        raise InvalidArgument("max product is not a power of two; "
                              "report the product itself instead")
    return Fraction(exponent, comb(n, k))


def all_one_triangle():
    """The standard forbidden pattern for the binary-color graph case."""
    return (3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
