#!/usr/bin/env python3
"""Compares two sets of saved perfbench results, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON files perfbench/run.py saves under
.bench_run/results/ (copy them aside per commit). Every file carries the
host fingerprint it was measured on; the comparison refuses to run when the
fingerprints differ, because numbers from different hosts or builds say
nothing about the code. For each (workload, trace mode, metric) it prints
both sides' median and quartiles over the seeds and the change of the
median as a share, marking end-to-end metrics that worsened by more than
their BENCHMARK.json bound.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"compare: no results in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(fingerprints) != 1:
        print("compare: refusing, the results come from different hosts or "
              "builds; measure both commits on one host:", file=sys.stderr)
        for fp in sorted(fingerprints):
            print("  " + fp, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({k: v[0] for k, v in bounds.items()})

    def series(runs):
        out = {}
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
        return out

    a, b = series(base), series(new)
    print(f"{'workload':15} {'metric':27} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8}")
    for key in sorted(a.keys() & b.keys()):
        workload, _, name = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        worse = change > 0 if better[name] == "lower" else change < 0
        flag = ""
        if name in bounds and worse and abs(change) > bounds[name][1]:
            flag = "  WORSE than bound"
        print(f"{workload:15} {name:27} "
              + " ".join(f"{v:10.4g}" for v in qa) + " "
              + " ".join(f"{v:10.4g}" for v in qb) + f" {change:+8.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
