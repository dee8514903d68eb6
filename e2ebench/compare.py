"""Compare two sets of benchmark runs.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.sh ... --out FILE` appends, one run
per line. For every workload and metric the script prints each set's
median and quartiles, and for the end-to-end metrics whether the new
median is within the bound BENCHMARK.json fixes (never worse than the base
median by more than that share). Exits 1 when a bounded metric is worse
by more than its bound, or when any run failed a correctness check.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    ok = True
    row = "{:<20} {:<34} {:>5} {:>14} {:>14} {:>14} {:>8} {}"
    print(row.format("workload", "metric", "set", "q1", "median", "q3",
                     "spread", "verdict"))
    for workload in sorted(set(base) | set(new)):
        sets = [("base", base.get(workload, [])), ("new", new.get(workload, []))]
        for name, runs in sets:
            for rec in runs:
                if not rec["result"]["correct"]:
                    ok = False
                    print(f"{workload}: {name} run with seed {rec['seed']} "
                          f"failed {rec['result']['failed']} of "
                          f"{rec['result']['attempted']} cells")
        metrics = []
        for _, runs in sets:
            for rec in runs:
                for m in rec["result"]["metrics"]:
                    if m not in metrics:
                        metrics.append(m)
        for metric in metrics:
            medians = {}
            for name, runs in sets:
                values = [r["result"]["metrics"][metric]["value"] for r in runs
                          if metric in r["result"]["metrics"]]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                medians[name] = med
                spread = (q3 - q1) / med if med else 0.0
                verdict = ""
                if name == "new" and metric in bounds and "base" in medians:
                    b = bounds[metric]
                    base_med = medians["base"]
                    worse = (med - base_med if b["better"] == "lower"
                             else base_med - med)
                    share = worse / base_med if base_med else 0.0
                    if share > b["bound"]:
                        verdict = f"WORSE by {share:.1%} (bound {b['bound']:.0%})"
                        ok = False
                    else:
                        verdict = f"agrees ({share:+.1%} worse, bound {b['bound']:.0%})"
                print(row.format(workload, metric, name, f"{q1:.6g}",
                                 f"{med:.6g}", f"{q3:.6g}", f"{spread:.1%}",
                                 verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
