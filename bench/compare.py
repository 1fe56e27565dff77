"""Compare two saved steady.py results, metric by metric.

    python3 bench/compare.py bench/out/base.json bench/out/change.json

For each workload and end-to-end metric: the median of each side, the
change as a share of the base median (positive is worse), the base's own
spread, and a verdict against the bound in BENCHMARK.json. A change
within the bound but above the base spread is shown as a gain or a loss
only when every run of one side beats every run of the other.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py BASE.json CHANGE.json")
    base, change = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("%-11s %-12s %11s %11s %8s %7s %6s  %s" % (
        "workload", "metric", "base", "change", "worse", "spread", "bound",
        "verdict"))
    regressed = False
    for workload in base:
        if workload not in change:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in change[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            q1, _, q3 = statistics.quantiles(a, n=4)
            spread = (q3 - q1) / ma
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            elif sign * max(b) < sign * min(a):
                verdict = "better in every run"
            elif sign * min(b) > sign * max(a):
                verdict = "worse in every run, within bound"
            elif abs(worse) <= spread:
                verdict = "no change beyond spread"
            else:
                verdict = "unresolved"
            print("%-11s %-12s %11.5g %11.5g %+8.3f %7.3f %6.3f  %s" % (
                workload, m["name"], ma, mb, worse, spread, m["bound"],
                verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
