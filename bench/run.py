"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload until --seconds have passed.
Each round runs in a fresh interpreter (bench/child.py), one at a time, so
every round starts with empty caches, as a CLI run does. Every output is
checked against bench/reference.py. With --trace 0 the last line holds the
end-to-end metrics (medians over rounds; times are scaled to a reference
machine speed, see child.Clock); with --trace 1, untraced and
traced rounds alternate and the last line holds the per-layer metrics of
the traced rounds plus the tracing overhead. Metric names and units come
from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A run must end within 180 s; a round still going then is stopped.
RUN_LIMIT_S = 170.0
# Set-up is reported as a median, so even a workload whose round outlasts
# --seconds runs this many untraced rounds.
MIN_ROUNDS = 2


def run_round(job, trace, timeout):
    """One round in a child interpreter; returns its report, or None."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(dict(job, trace=trace)), capture_output=True,
            text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("round stopped after %.0f s" % timeout, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("round failed:\n" + proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hereditary" / "__init__.py").is_file():
        sys.exit("run.py: no src/hereditary next to bench/; run it from a "
                 "checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    job = workloads.make_job(args.workload, args.seed)
    ops = workloads.operations(job)
    attempted = failed = 0
    correct = True
    plain, traced = [], []
    start = perf_counter()
    while True:
        trace = bool(args.trace) and len(plain) > len(traced)
        left = RUN_LIMIT_S - (perf_counter() - start)
        report = run_round(job, trace, left) if left > 0 else None
        attempted += len(ops)
        if report is None:
            failed += len(ops)
            break
        for op in ops:
            res = report["results"].get(op["id"], {"error": "no result"})
            if "error" in res:
                print("FAILED %s: %s" % (op["id"], res["error"]), file=sys.stderr)
                failed += 1
                continue
            problem = workloads.check(op, res["out"])
            if problem:
                print("WRONG %s: %s" % (op["id"], problem), file=sys.stderr)
                failed += 1
                correct = False
        (traced if trace else plain).append(report)
        done = (perf_counter() - start >= args.seconds
                and len(plain) >= MIN_ROUNDS)
        if done and (not args.trace or traced):
            break

    def median(rounds, key):
        return statistics.median(key(r) for r in rounds)

    values = {}
    if plain:
        values = {"setup_s": median(plain, lambda r: r["setup_s"]),
                  "wall_s": median(plain, lambda r: r["wall_s"]),
                  "total_s": median(plain, lambda r: r["setup_s"] + r["wall_s"]),
                  "peak_rss_mb": median(plain, lambda r: r["peak_rss_mb"])}
    if traced:
        values = {name: median(traced, lambda r: r["layers"][name])
                  for name in traced[0]["layers"]}
        values["trace.overhead"] = (median(traced, lambda r: r["wall_s"])
                                    / median(plain, lambda r: r["wall_s"]))
    rounds = "%d rounds" % len(plain) + (
        ", %d traced" % len(traced) if args.trace else "")
    print("workload %s, seed %d, %s, %d operations attempted, %d failed"
          % (args.workload, args.seed, rounds, attempted, failed))
    if plain:
        print("  as measured, before scaling: setup %.4g s, wall %.4g s"
              % (median(plain, lambda r: r["raw_setup_s"]),
                 median(plain, lambda r: r["raw_wall_s"])))
    metrics = {}
    for name in wanted:
        if name in values:
            metrics[name] = {"value": values[name], "unit": units[name]}
            print("  %-40s %14.6g %s" % (name, values[name], units[name]))
    # No workload has an operation that is expected to fail, so a failed
    # operation or a metric left unmeasured makes the whole run a failure.
    correct = correct and failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
