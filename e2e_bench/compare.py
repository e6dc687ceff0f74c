#!/usr/bin/env python3
"""Verdicts for the end-to-end benchmark: parent set against change set.

    python3 e2e_bench/compare.py PARENT.json CHANGE.json
    python3 e2e_bench/compare.py SET.json          # spreads of one set

A set file is what `run.py --all --seeds ... --out FILE` writes: a list of
run records. For every end-to-end metric of BENCHMARK.json and every
workload, the parent's spread is the distance between the quartiles of its
runs (statistics.quantiles, n=4), as a share of its median. The verdict:

  unresolved  the parent's spread is wider than the metric's bound, and
              not every change run beats every parent run;
  improved    every change run beats every parent run (the only verdict
              that needs no spread), or the change wins at least 9 of 10
              seed-paired runs and its median beats the parent's by more
              than the parent's quartile distance;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Any rise in failed operations is reported as well. The exit code is 1 when
something regressed or failed more often, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(path):
    """{workload: [(seed, {metric: value}, failed), ...]} of untraced runs."""
    with open(path) as f:
        records = json.load(f)
    runs = {}
    for r in records:
        if r["trace"]:
            continue
        metrics = {k: v["value"] for k, v in r["result"]["metrics"].items()}
        runs.setdefault(r["workload"], []).append(
            (r["seed"], metrics, r["result"]["failed"]))
    for v in runs.values():
        v.sort(key=lambda run: run[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, lower):
    """True if value a is strictly better than value b."""
    return a < b if lower else a > b


def verdict(parent, change, bound, lower):
    p50, c50 = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(p50) if p50 else float("inf")
    every = all(better(c, p, lower) for c in change for p in parent)
    worse_by = ((c50 - p50) if lower else (p50 - c50)) / abs(p50) \
        if p50 else 0.0
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, lower) for p, c in pairs)
    if every:
        return "improved", spread, worse_by
    if spread > bound:
        return "unresolved", spread, worse_by
    if worse_by > bound:
        return "regressed", spread, worse_by
    if (better(c50, p50, lower) and abs(c50 - p50) > q3 - q1
            and wins >= 0.9 * len(pairs)):
        return "improved", spread, worse_by
    return "unchanged", spread, worse_by


def spreads(runs, bench):
    print("%-18s %-10s %12s %10s %8s %s" %
          ("metric", "workload", "median", "spread", "bound", "ok"))
    bad = 0
    for m in bench["end_to_end"]:
        for w, rs in sorted(runs.items()):
            values = [r[1][m["name"]] for r in rs]
            p50 = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(p50) if p50 else float("inf")
            ok = spread <= m["bound"] / 3
            bad += not ok and m["name"] != "setup_s"
            print("%-18s %-10s %12.5g %9.2f%% %7.0f%% %s" %
                  (m["name"], w, p50, 100 * spread, 100 * m["bound"],
                   "yes" if ok else "NO (over a third of the bound)"))
    return bad


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    parent = load_set(argv[1])
    if len(argv) == 2:
        spreads(parent, bench)
        return 0
    change = load_set(argv[2])
    counts = {}
    flagged = False
    print("%-18s %-10s %12s %12s %9s %9s  %s" %
          ("metric", "workload", "parent", "change", "worse by", "spread",
           "verdict"))
    for m in bench["end_to_end"]:
        lower = m["better"] == "lower"
        for w in sorted(set(parent) & set(change)):
            p = [r[1][m["name"]] for r in parent[w]]
            c = [r[1][m["name"]] for r in change[w]]
            v, spread, worse_by = verdict(p, c, m["bound"], lower)
            counts[v] = counts.get(v, 0) + 1
            flagged |= v == "regressed"
            print("%-18s %-10s %12.5g %12.5g %8.2f%% %8.2f%%  %s" %
                  (m["name"], w, statistics.median(p), statistics.median(c),
                   100 * worse_by, 100 * spread, v))
    for w in sorted(set(parent) & set(change)):
        pf = sum(r[2] for r in parent[w])
        cf = sum(r[2] for r in change[w])
        if cf > pf:
            flagged = True
            print("FAILED OPERATIONS ROSE on %s: %d -> %d" % (w, pf, cf))
    print("\n" + ", ".join("%d %s" % (n, v) for v, n in sorted(counts.items())))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
