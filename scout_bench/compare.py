#!/usr/bin/env python3
"""Summarises scout_bench runs, or compares two sets of them.

    python3 scout_bench/compare.py RUNS
    python3 scout_bench/compare.py BASE CHANGE

Each argument is a directory of result files named <workload>.<seed>.json,
each holding the standard output of one run (its last line is the JSON
result), for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do for w in follow visualize; do
      python3 scout_bench/run.py --workload $w --seed $seed --seconds 10 \\
        --trace 0 > base/$w.$seed.json
    done; done

Alternate the base and change runs when collecting both. With one
directory, the script prints each metric's median, quartiles and spread
(quartile distance / median) per workload, against the metric's bound in
BENCHMARK.json. With two, it pairs runs by workload and seed and labels
every (end-to-end metric, workload) pair:
  unresolved  the base spread exceeds the bound, and not every change run
              is better than every base run;
  better      the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base's
              quartile distance;
  worse       the change median is worse than the base median by more
              than the bound (a share of the base median);
  same        otherwise.
"""

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(directory):
    """{workload: {seed: result}} from <workload>.<seed>.json files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        stem, ext = os.path.splitext(name)
        workload, _, seed = stem.rpartition(".")
        if ext != ".json" or not workload:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            sys.exit(f"{name}: empty output")
        result = json.loads(lines[-1])
        if not result.get("correct"):
            sys.exit(f"{name}: run reports correct=false")
        runs.setdefault(workload, {})[seed] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for r in results]


def summarise(runs, metrics):
    print(f"{'workload':12} {'metric':18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, by_seed in sorted(runs.items()):
        for m in metrics:
            vals = values_of(by_seed.values(), m["name"])
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{workload:12} {m['name']:18} {len(vals):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3f}")


def label(base, change, better_is_lower, bound):
    """Label of one (metric, workload) pair; base/change are paired lists."""
    sign = -1.0 if better_is_lower else 1.0
    q1, base_med, q3 = quartiles(base)
    change_med = statistics.median(change)
    iqr = q3 - q1
    if base_med and iqr / abs(base_med) > bound:
        dominates = min(sign * c for c in change) > max(sign * b for b in base)
        return "better" if dominates else "unresolved"
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if wins >= 0.9 * len(base) and abs(change_med - base_med) > iqr:
        return "better"
    if sign * (base_med - change_med) > bound * abs(base_med):
        return "worse"
    return "same"


def compare(base_runs, change_runs, metrics):
    print(f"{'workload':12} {'metric':18} {'pairs':>5} {'base':>12} "
          f"{'change':>12} {'delta%':>8}  label")
    for workload in sorted(base_runs):
        seeds = sorted(set(base_runs[workload]) &
                       set(change_runs.get(workload, {})))
        if not seeds:
            print(f"{workload:12} (no paired runs)")
            continue
        for m in metrics:
            base = values_of([base_runs[workload][s] for s in seeds],
                             m["name"])
            change = values_of([change_runs[workload][s] for s in seeds],
                               m["name"])
            b, c = statistics.median(base), statistics.median(change)
            delta = 100.0 * (c - b) / b if b else float("inf")
            verdict = label(base, change, m["better"] == "lower", m["bound"])
            print(f"{workload:12} {m['name']:18} {len(seeds):5d} {b:12.6g} "
                  f"{c:12.6g} {delta:8.2f}  {verdict}")


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    if len(argv) == 1:
        summarise(load_runs(argv[0]), metrics)
    else:
        compare(load_runs(argv[0]), load_runs(argv[1]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
