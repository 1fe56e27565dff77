"""Exact extremal counting for hereditary properties of finite relational
structures: quantifier-free type spaces, templates with choice sets,
subpattern counting, brute-force extremal numbers and density sequences,
structure distances, a containers hypergraph, and built-in instance
families, three with closed-form oracles.
"""

__version__ = "0.1.0"

from .errors import BudgetExceeded, InvalidArgument
from .structures import (Signature, Structure, copies, density,
                         embeds_noninduced, induced_substructure,
                         is_isomorphic)
from .qftypes import QfType, atoms, qftp, type_by_id, type_from_structure, type_space
from .diagrams import (LocatedType, SyntacticDiagram, diagram, is_error,
                       is_satisfiable, merge_entries, span, type_diagram,
                       witness_structure)
from .properties import (INDUCED, NON_INDUCED, ForbiddenEntry,
                         HereditaryProperty, UniverseEntry, closure,
                         count_members, enumerate_members, is_member,
                         is_trivial_up_to, realized_type_space,
                         universe_entries)
from .templates import (Template, choice_count, detect_errors,
                        full_subpatterns, is_error_free, is_flaw_free,
                        is_full_subpattern, is_h_random, restrict,
                        r_subsets, sub_count,
                        template_from_structure, validate_template)
from .extremal import (ExtremalReport, StabilityProbe, density_sequence,
                       e_delta_membership, e_membership, near_extremal_set,
                       search_extremal, stability_probe)
from .distances import (ac_distance, closeness_inequality_check, dh_set, diff,
                        dist, distance_bound_check, index_entries,
                        template_diff, template_dist, transfer_subpattern)
from .containers import (ContainerHypergraph, build_hypergraph,
                         build_template_from_diagram_set, codegree_function,
                         degree, exponent_m, independence_check,
                         max_codegrees, suggested_tau)
from . import instances

__all__ = [name for name in dir() if not name.startswith("_")]
