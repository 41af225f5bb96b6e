#!/usr/bin/env python3
"""Steadiness check for the KadoP performance benchmark.

    python3 perfbench/steady.py

Run from the repository root. Runs every workload of BENCHMARK.json as two
batches of runs of its run_seconds, seeds 1-10 in both batches; the second
batch visits the workloads in reverse order, so neither batch always runs a
workload first. For every end-to-end metric of BENCHMARK.json it prints,
per batch, the median, the quartiles and the spread (Q3 - Q1) / median,
and checks:

  - the self-test passes;
  - the two batches' medians agree within the metric's bound;
  - each batch's spread stays within the bound;
  - virtual-clock metrics are identical for the same seed in both batches;
  - the share of failed operations is the same in both batches.

Exits 1 when a check fails. The bounds in BENCHMARK.json were set from
this script's output.
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build-and-run helpers)

SEEDS = range(1, 11)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    binary = run.build()
    ok = run.self_test(binary)
    if not ok:
        print("self-test FAILED")
    # results[batch][workload] = list of (seed, result)
    results = [{w: [] for w in workloads} for _ in range(2)]
    for batch in range(2):
        order = workloads if batch == 0 else list(reversed(workloads))
        for seed in SEEDS:
            for w in order:
                r = run.run_one(binary, w, seed, bench["run_seconds"], 0)
                results[batch][w].append((seed, r))
                print(f"batch {batch + 1} seed {seed:>2} {w:<17} "
                      f"attempted {r['attempted']} failed {r['failed']} "
                      f"correct {r['correct']}", file=sys.stderr, flush=True)

    for w in workloads:
        print(f"== {w}")
        share = []
        for batch in range(2):
            att = sum(r["attempted"] for _, r in results[batch][w])
            fail = sum(r["failed"] for _, r in results[batch][w])
            share.append(fail / att)
            if not all(r["correct"] for _, r in results[batch][w]):
                print(f"   batch {batch + 1}: a run reported correct=false")
                ok = False
        if share[0] != share[1]:
            print(f"   failed share differs: {share[0]} vs {share[1]}")
            ok = False
        print(f"   failed share {share[0]:.6f}")
        for name, bound in bounds.items():
            rows = []
            for batch in range(2):
                vals = [r["metrics"][name]["value"] for _, r in results[batch][w]]
                rows.append(spread(vals))
            (q1a, ma, q3a, sa), (q1b, mb, q3b, sb) = rows
            drift = (mb - ma) / ma if ma else 0.0
            flags = []
            if abs(drift) > bound:
                flags.append("MEDIANS DIFFER")
            if max(sa, sb) > bound:
                flags.append("SPREAD OVER BOUND")
            # A pure function of the seed: must repeat bit for bit.
            if name in run.VIRTUAL:
                a = [r["metrics"][name]["value"] for _, r in results[0][w]]
                b = [r["metrics"][name]["value"] for _, r in results[1][w]]
                if a != b:
                    flags.append("VIRTUAL NOT REPEATED")
            ok = ok and not flags
            print(f"   {name:<20} bound {bound:<5} "
                  f"b1 {ma:>12.6g} [{q1a:.6g}, {q3a:.6g}] spread {sa:6.3f} | "
                  f"b2 {mb:>12.6g} [{q1b:.6g}, {q3b:.6g}] spread {sb:6.3f} | "
                  f"drift {drift:+.3f} {' '.join(flags)}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
