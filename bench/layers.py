"""Per-layer tracing: wraps functions of `hereditary` from outside.

Each wrapped function records its calls and its self time: the time in
the call minus the time spent in wrapped calls beneath it. A function is
rebound everywhere the package holds it, since several are imported by
name into other modules (`merge_entries` lives in `diagrams`, `templates`,
`extremal` and `distances`). Nothing in `src/` changes.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" wraps a method.
SPANS = [
    ("instances.build", "hereditary.instances.metric", "metric_instance"),
    ("instances.build", "hereditary.instances.digraphs", "digraph_instance"),
    ("instances.build", "hereditary.instances.triples", "triples_instance"),
    ("properties.realized_type_space", "hereditary.properties",
     "realized_type_space"),
    ("properties.entry_matches", "hereditary.properties",
     "HereditaryProperty.entry_matches"),
    ("properties.is_member", "hereditary.properties", "is_member"),
    ("structures.is_isomorphic", "hereditary.structures", "is_isomorphic"),
    ("structures.embeds_noninduced", "hereditary.structures",
     "embeds_noninduced"),
    ("qftypes.qftp", "hereditary.qftypes", "qftp"),
    ("diagrams.merge_entries", "hereditary.diagrams", "merge_entries"),
    ("diagrams.is_satisfiable", "hereditary.diagrams", "is_satisfiable"),
    ("diagrams.witness_structure", "hereditary.diagrams", "witness_structure"),
    ("templates.block_ok", "hereditary.templates", "_BlockChecker.block_ok"),
    ("templates.is_h_random", "hereditary.templates", "is_h_random"),
    ("templates.sub_count", "hereditary.templates", "sub_count"),
    ("extremal.candidate_sets", "hereditary.extremal", "candidate_sets"),
    ("extremal.search", "hereditary.extremal", "search_extremal"),
    ("extremal.stability_probe", "hereditary.extremal", "stability_probe"),
    ("distances.template_dist", "hereditary.distances", "template_dist"),
    ("containers.build_hypergraph", "hereditary.containers",
     "build_hypergraph"),
    ("containers.codegree_function", "hereditary.containers",
     "codegree_function"),
]
# Generator functions: self time is the time spent producing items.
GENERATOR_SPANS = [
    ("properties.enumerate_members", "hereditary.properties",
     "enumerate_members"),
]
# Counted only: a span per call would cost more than the call itself.
COUNTED = [
    ("structures.structure_init", "hereditary.structures", "Structure.__init__"),
]
# Read around calls by Tracer.hooks.
COUNTERS = ["properties.member_cache_hits", "templates.block_cache_hits",
            "extremal.search_nodes", "extremal.search_pruned",
            "instances.forbidden_entries"]


class Tracer(object):
    def __init__(self):
        self.stack = [0.0]  # time covered by wrapped children, per open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._instances = set()

    def _close(self, name, t0):
        dt = perf_counter() - t0
        self.self_s[name] += dt - self.stack.pop()
        self.stack[-1] += dt

    def span(self, name, fn):
        stack, calls, close = self.stack, self.calls, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, t0)
        return wrapper

    def generator_span(self, name, fn):
        stack, close = self.stack, self._close

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, t0)
                    yield item
            finally:
                it.close()
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def hooks(self, name, fn):
        """Counters read around a call: cache hits, search nodes, entries."""
        counts = self.counts
        if name == "properties.is_member":
            def is_member(H, M):
                counts["properties.member_cache_hits"] += (
                    M._key in H._member_cache)
                return fn(H, M)
            return is_member
        if name == "templates.block_ok":
            def block_ok(checker, block, choice_map):
                before = len(checker.cache)
                out = fn(checker, block, choice_map)
                counts["templates.block_cache_hits"] += (
                    len(checker.cache) == before)
                return out
            return block_ok
        if name == "extremal.search":
            def search_extremal(*args, **kwargs):
                report = fn(*args, **kwargs)
                counts["extremal.search_nodes"] += report.stats["nodes"]
                counts["extremal.search_pruned"] += report.stats["pruned"]
                return report
            return search_extremal
        if name == "instances.build":
            def build(*args, **kwargs):
                H = fn(*args, **kwargs)
                if id(H) not in self._instances:
                    self._instances.add(id(H))
                    counts["instances.forbidden_entries"] += len(H.forbidden)
                return H
            return build
        return fn

    def install(self):
        """Rebind every traced function in every loaded hereditary module."""
        import hereditary  # noqa: F401  (loads every module it rebinds)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hereditary" or key.startswith("hereditary.")]
        plan = ([(self.span, s) for s in SPANS]
                + [(self.generator_span, s) for s in GENERATOR_SPANS]
                + [(self.counted, s) for s in COUNTED])
        for make, (name, module, attr) in plan:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method,
                        make(name, self.hooks(name, getattr(cls, method))))
                continue
            orig = getattr(owner, attr)
            wrapped = make(name, self.hooks(name, orig))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def metrics(self):
        """Flat {name: value}: `<span>_calls`, `<span>_s`, the counters and
        the two cache hit ratios (0 when the cache was never asked)."""
        out = {}
        for name, _, _ in SPANS + GENERATOR_SPANS + COUNTED:
            out[name + "_calls"] = self.calls[name]
        for name, _, _ in SPANS + GENERATOR_SPANS:
            out[name + "_s"] = self.self_s[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        for span, hits, ratio in (
                ("properties.is_member", "properties.member_cache_hits",
                 "properties.member_cache_hit_ratio"),
                ("templates.block_ok", "templates.block_cache_hits",
                 "templates.block_cache_hit_ratio")):
            calls = self.calls[span]
            out[ratio] = self.counts[hits] / calls if calls else 0.0
        return out
