"""Steadiness: run each workload on several seeds and print the spread.

    python3 bench/steady.py --runs 10 --save bench/out/base.json

For each workload and end-to-end metric this prints the median and the
quartiles over the runs (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. The bounds are set from this output.
Every workload of BENCHMARK.json runs, one run at a time, each for its
run_seconds; run i uses seed i (1 to --runs).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("run.py failed for %s seed %d:\n%s"
                 % (workload, seed, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", help="write every run's result here (JSON)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, spec["run_seconds"])
            runs.append(dict(res, seed=seed))
            print("%s seed %d: correct %s, %d/%d failed, %s" % (
                workload, seed, res["correct"], res["failed"],
                res["attempted"], ", ".join(
                    "%s %.4g" % (k, v["value"])
                    for k, v in res["metrics"].items())), flush=True)
        saved[workload] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: failed share %s, all correct %s" % (
            workload, shares, all(r["correct"] for r in runs)))
        print("  %-12s %11s %11s %11s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            flag = "" if s["spread"] < bound / 3 else "  over a third of bound"
            print("  %-12s %11.5g %11.5g %11.5g %8.4f %6.3f%s" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], bound, flag))
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")


if __name__ == "__main__":
    main()
