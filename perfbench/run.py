#!/usr/bin/env python3
"""Builds the KadoP performance benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else to .bench_build/ (CMake + Ninja, RelWithDebInfo).

A run first runs the self-test in a process of its own (planted errors
must be caught), then repeats whole rounds of the workload, each in a fresh
single-threaded process, until --seconds of wall time are spent (a traced
run alternates untraced and traced rounds, at least one of each).
Host-clock figures are medians over the rounds; virtual-clock figures must
agree between all rounds of the seed. A failed self-test or rounds that
disagree make the run report correct=false. The last line of stdout is
the run's JSON result. With --workload all, every workload runs one after
another, a table of every metric is printed, and the last line merges the
results with metric names prefixed by the workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("index_build", "serve_mix", "selective_lookup")
HERE = os.path.dirname(os.path.abspath(__file__))
# One round takes well under a minute; past this it is hung.
ROUND_TIMEOUT_S = 150
# Virtual-clock metrics: a pure function of the seed.
VIRTUAL = ("index_time_s", "query_p50_s", "query_p99_s", "goodput_qps", "net_mb")
# Per-layer metrics timed on the host clock: medians over the traced rounds.
# (sim.host_ns_per_event and trace.overhead are taken from both kinds.)
HOST_LAYERS = ("host.publish_s", "host.view_setup_s", "host.serve_s")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            + gen,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "kadop_perfbench")


def self_test(binary):
    """Runs the self-test in its own process; True when it passes."""
    proc = subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                          timeout=ROUND_TIMEOUT_S)
    return proc.returncode == 0


def run_round(binary, workload, seed, trace):
    """Runs one round in its own process; returns its parsed JSON line."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def median_of(rounds, f):
    return statistics.median(f(r) for r in rounds)


def run_one(binary, workload, seed, seconds, trace):
    """Runs a workload for `seconds`; returns the run's result object."""
    rounds = []
    start = time.monotonic()
    while (not rounds or time.monotonic() - start < seconds
           or (trace and len(rounds) < 2)):
        traced = 1 if trace and len(rounds) % 2 == 1 else 0
        rounds.append((traced, run_round(binary, workload, seed, traced)))

    first = rounds[0][1]
    correct = True
    for _, r in rounds:
        same = (r["attempted"], r["failed"]) == (first["attempted"], first["failed"])
        same = same and all(r["metrics"][m]["value"] == first["metrics"][m]["value"]
                            for m in VIRTUAL)
        if not same:
            print(f"{workload}: virtual-clock results differ between rounds",
                  file=sys.stderr)
            correct = False
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in rounds),
        "failed": sum(r["failed"] for _, r in rounds),
    }
    plain = [r for t, r in rounds if not t]
    if not trace:
        metrics = {}
        for name, m in first["metrics"].items():
            value = m["value"] if name in VIRTUAL else median_of(
                plain, lambda r: r["metrics"][name]["value"])
            metrics[name] = {"value": value, "unit": m["unit"]}
        result["metrics"] = metrics
        return result

    traced = [r for t, r in rounds if t]
    metrics = {}
    for name, m in traced[0]["layers"].items():
        value = m["value"]
        if name in HOST_LAYERS or m["unit"] == "ns":
            value = median_of(traced, lambda r: r["layers"][name]["value"])
        metrics[name] = {"value": value, "unit": m["unit"]}
    metrics["sim.host_ns_per_event"]["value"] = median_of(
        plain, lambda r: r["timed_host_s"] * 1e9 / r["events"] if r["events"] else 0)
    metrics["trace.overhead"]["value"] = (
        median_of(traced, lambda r: r["timed_host_s"])
        / median_of(plain, lambda r: r["timed_host_s"]))
    result["metrics"] = metrics
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload}")

    binary = build()
    tested = self_test(binary)
    if args.self_test:
        return 0 if tested else 1

    if args.workload != "all":
        result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        result["correct"] = result["correct"] and tested
        print(json.dumps(result))
        return 0

    merged = {"correct": tested, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result = run_one(binary, w, args.seed, args.seconds, args.trace)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"== {w}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"   {name:<42} {m['value']:>16.6g} {m['unit']}")
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
