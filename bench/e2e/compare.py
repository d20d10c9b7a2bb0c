#!/usr/bin/env python3
"""Compare two sets of eyw_bench runs, metric by metric.

    python3 bench/e2e/compare.py A B [--benchmark BENCHMARK.json]

A and B are result sets: directories searched recursively for
results.json (one per eyw_bench run; use several seeds per set), or single
results.json files. For every (workload, end-to-end metric) present in
both sets it prints each set's median and quartiles — quartiles as
Python's statistics.quantiles(values, n=4) gives them — and a verdict for
B against A:

    unresolved    a set's spread (quartile distance / median) exceeds the
                  bound, and B's runs do not all sit on one side of A's
    worse         B's median is worse than A's by more than the bound
    better        B's median is better than A's by more than the bound
    within bound  otherwise

Bounds and directions come from BENCHMARK.json. Metrics that only some
workloads report (EXTRA below) carry their bounds here. Exits 1 if any
verdict is "worse", 2 on bad input.
"""
import argparse
import json
import os
import statistics
import sys

# End-to-end metrics a workload reports beyond BENCHMARK.json's common
# set: name -> (unit, better, bound, bound is absolute).
EXTRA = {
    # Host stalls of a shared VM move ack latencies by more than any useful
    # bound, so BENCHMARK.json lists them among the per-layer metrics.
    "ack_p50_ms": ("ms", "lower", 0.25, False),
    "ack_p99_ms": ("ms", "lower", 0.25, False),
    "blind_ms_per_report": ("ms", "lower", 0.25, False),
    "oprf_batch_p50_ms": ("ms", "lower", 0.25, False),
    "oprf_batch_p95_ms": ("ms", "lower", 0.25, False),
    "failed_ratio": ("fraction", "lower", 0.001, True),
}


def load_set(path):
    """{(workload, metric): [values]} over every untraced run in `path`."""
    files = []
    if os.path.isfile(path):
        files.append(path)
    else:
        for dirpath, _, names in os.walk(path):
            if "results.json" in names:
                files.append(os.path.join(dirpath, "results.json"))
    if not files:
        sys.exit(f"compare.py: no results.json under {path}")
    values = {}
    for name in sorted(files):
        with open(name) as f:
            results = json.load(f)
        for workload, body in results["workloads"].items():
            if not body.get("correct"):
                sys.exit(f"compare.py: {name}: {workload} was not correct")
            for metric, got in body.get("metrics", {}).items():
                values.setdefault((workload, metric), []).append(got["value"])
    return values, len(files)


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound, absolute):
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B worse than A.
    change = sign * (med_b - med_a)
    if not absolute:
        change = change / abs(med_a) if med_a else 0.0
    if not absolute and max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return change, "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return change, "worse"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    definitions = {m["name"]: (m["unit"], m["better"], m["bound"], False)
                   for m in benchmark["end_to_end"]}
    definitions.update(EXTRA)

    set_a, runs_a = load_set(args.a)
    set_b, runs_b = load_set(args.b)
    print(f"A: {args.a} ({runs_a} run(s))   B: {args.b} ({runs_b} run(s))")
    header = (f"{'workload':22} {'metric':26} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'change':>9}  verdict")
    print(header)
    print("-" * len(header))
    any_worse = False
    for key in sorted(set(set_a) & set(set_b)):
        workload, metric = key
        if metric not in definitions:
            continue
        unit, better, bound, absolute = definitions[metric]
        change, word = verdict(set_a[key], set_b[key], better, bound, absolute)
        any_worse |= word == "worse"
        cells = []
        for values in (set_a[key], set_b[key]):
            med, q1, q3 = summary(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {unit}")
        shown = f"{change:+.4f}" if absolute else f"{100 * change:+.1f}%"
        print(f"{workload:22} {metric:26} {cells[0]:>30} {cells[1]:>30} "
              f"{shown:>9}  {word}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
