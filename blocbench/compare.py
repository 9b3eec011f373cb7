#!/usr/bin/env python3
"""Summarizes or compares sets of benchmark run records.

    python3 blocbench/compare.py DIR             # spread of one set
    python3 blocbench/compare.py BASE CHANGE     # CHANGE against BASE

A set is a directory of run records written by run.py (--out DIR); only
untraced records (end-to-end metrics) are read. Records whose machine stamps
(nproc, hardware_concurrency, ISA, compiler, build type) differ are not
comparable: the script refuses them with exit code 2.

One set: per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json. Exit 1 when a spread exceeds its bound.

Two sets: each metric's median in CHANGE against BASE, as the share by which
it got worse. Exit 1 when any metric got worse by more than its bound.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def load_set(directory, spec):
    """{workload: {metric: [values]}} of the end-to-end metrics, and the set
    of stamps seen."""
    values = {}
    stamps = set()
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as f:
            record = json.load(f)
        stamps.add(json.dumps(record["stamp"], sort_keys=True))
        per_metric = values.setdefault(record["workload"], {})
        for name, value in record["result"]["metrics"].items():
            if name in spec:
                per_metric.setdefault(name, []).append(value)
    return values, stamps


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(d, spec) for d in argv[1:]]
    stamps = set().union(*(s for _, s in sets))
    if len(stamps) > 1:
        print("refused: run records come from different machine stamps:",
              file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2
    if stamps:
        print("stamp:", next(iter(stamps)))

    bad = 0
    if len(sets) == 1:
        values = sets[0][0]
        for workload in sorted(values):
            print(f"\n{workload}")
            for name, vals in values[workload].items():
                med, q1, q3, spread = summary(vals)
                bound = spec[name]["bound"]
                verdict = ("steady" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO NOISY")
                if spread > bound:
                    bad += 1
                print(f"  {name:24s} n={len(vals):2d} median={med:.6g} "
                      f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f} "
                      f"bound={bound} {verdict}")
        return 1 if bad else 0

    (base, _), (change, _) = sets
    for workload in sorted(set(base) & set(change)):
        print(f"\n{workload}")
        for name in base[workload]:
            if name not in change[workload]:
                continue
            b = statistics.median(base[workload][name])
            c = statistics.median(change[workload][name])
            higher = spec[name]["better"] == "higher"
            worse = ((b - c) if higher else (c - b)) / b if b else 0.0
            bound = spec[name]["bound"]
            verdict = "REGRESSION" if worse > bound else "ok"
            if worse > bound:
                bad += 1
            print(f"  {name:24s} base={b:.6g} change={c:.6g} "
                  f"worse_by={worse:+.3f} bound={bound} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
