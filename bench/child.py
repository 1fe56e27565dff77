"""One round of a workload, in a fresh interpreter.

Reads a job (JSON on stdin) written by run.py: the instances to set up and
the operations to time. Writes one JSON object on stdout: set-up time, the
time of the operations (each both as measured and scaled to the reference
speed, see Clock), peak RSS, each operation's output or error, and, when
traced, the per-layer counters. Checks happen in run.py, not here.
"""

import json
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

# Calls go through module attributes, so functions the tracer rebinds after
# these imports are the ones called.
from hereditary import containers, extremal, properties, templates  # noqa: E402
from hereditary.instances import digraphs, metric, triples  # noqa: E402
from layers import Tracer  # noqa: E402

# The machine's speed swings by up to a third in phases of 5 to 20 s, and
# a fixed pure-Python loop slows down with the program. So timed work is
# cut into stretches of about STRETCH_S, each scaled by the loop's time
# just before and just after it: reported times are what the work would
# take at the speed where the loop takes CALIBRATION_REF_S (about its
# median on the 2-core reference box of bench/README.md).
CALIBRATION_LOOP = 250_000
CALIBRATION_REF_S = 0.025
STRETCH_S = 0.25


def calibrate():
    """Time of one fixed loop: a probe of the machine's speed right now."""
    # Work on another thread would slow the loop and be scaled away.
    if threading.active_count() != 1:
        raise RuntimeError("calibration needs a single-threaded process")
    t0 = perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i % 7
    return perf_counter() - t0


class Clock:
    """Sums timed work, as measured (`raw`) and at the reference speed."""

    def __init__(self):
        self.raw = self.scaled = self.pending = 0.0
        self.last = calibrate()

    def add(self, seconds):
        self.raw += seconds
        self.pending += seconds
        if self.pending >= STRETCH_S:
            self.close_stretch()

    def close_stretch(self):
        if self.pending:
            now = calibrate()
            speed = CALIBRATION_REF_S / ((self.last + now) / 2)
            self.scaled += self.pending * speed
            self.last, self.pending = now, 0.0


def instance(key):
    if key.startswith("metric-r"):
        return metric.metric_instance(int(key[len("metric-r"):]))
    if key == "digraph-k2":
        return digraphs.digraph_instance(2)
    if key == "triples":
        return triples.triples_instance()
    raise ValueError("unknown instance %r" % key)


def template(H, key, n, choices):
    """A program Template from the benchmark's choice-set encoding."""
    if key.startswith("metric-r"):
        r = int(key[len("metric-r"):])
        types = {d: metric.distance_type(r, d) for d in range(1, r + 1)}
    elif key == "digraph-k2":
        types = {"none": digraphs.P4, "fwd": digraphs.P1,
                 "bwd": digraphs.P2, "both": digraphs.P3}
    else:
        types = {"edge": triples.P1, "none": triples.P2}
    return templates.Template(H, n, {tuple(A): {types[c] for c in ch}
                                     for A, ch in choices})


def peak_rss_mb():
    """Peak resident memory of this process's own address space.

    Not ru_maxrss: Linux carries the parent's resident size at fork over
    exec into the child's ru_maxrss, so it would count run.py's memory,
    which grows with each round it keeps.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def run_op(op, H, state):
    """Call the program for one operation; returns its output as JSON data.

    `state` carries a hypergraph from its build to its codegree operation.
    """
    kind = op["kind"]
    if kind == "search":
        rep = extremal.search_extremal(H, op["n"])
        return {"ex": rep.ex, "exact": rep.exact}
    if kind == "probe":
        probe = extremal.stability_probe(H, op["n"], Fraction(*op["eps"]))
        return {"subs": [value for _, value, _ in probe.near_extremal],
                "worst_gap": frac(probe.worst_gap)}
    if kind == "count":
        return {"count": properties.count_members(H, op["n"])}
    if kind == "hrandom":
        return {"h_random": templates.is_h_random(op["template"])}
    if kind == "hypergraph":
        Hg = containers.build_hypergraph(H, op["k"], op["n"])
        state[op["id"]] = Hg
        return {"vertices": Hg.num_vertices(), "edges": Hg.num_edges(),
                "alpha": Hg.alpha, "d": frac(Hg.average_degree())}
    if kind == "codegree":
        rep = containers.codegree_function(state[op["of"]], Fraction(*op["tau"]))
        return {"d": frac(rep.d), "delta": frac(rep.delta)}
    raise ValueError("unknown operation %r" % kind)


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()

    results = {}
    instances = {}
    setup = Clock()
    for key in job["setup"]:
        t0 = perf_counter()
        try:
            H = instance(key)
            space = properties.realized_type_space(H)
        except Exception as exc:
            results["setup:" + key] = {"error": repr(exc)}
        else:
            instances[key] = H
            results["setup:" + key] = {"out": {"types": len(space)}}
        finally:
            setup.add(perf_counter() - t0)
    setup.close_stretch()

    wall = Clock()
    state = {}
    for op in job["ops"]:
        H = instances.get(op["instance"])
        if H is None:
            results[op["id"]] = {"error": "instance set-up failed"}
            continue
        # Built untimed and dropped after its call, so peak RSS holds one
        # benchmark template at a time besides what the program keeps.
        if op["kind"] == "hrandom":
            op["template"] = template(H, op["instance"], op["n"], op["choices"])
        t0 = perf_counter()
        try:
            results[op["id"]] = {"out": run_op(op, H, state)}
        except Exception as exc:
            results[op["id"]] = {"error": repr(exc)}
        finally:
            wall.add(perf_counter() - t0)
            op.pop("template", None)
    wall.close_stretch()

    json.dump({"setup_s": setup.scaled, "wall_s": wall.scaled,
               "raw_setup_s": setup.raw, "raw_wall_s": wall.raw,
               "peak_rss_mb": peak_rss_mb(), "results": results,
               "layers": tracer.metrics() if tracer else None}, sys.stdout)


if __name__ == "__main__":
    main()
