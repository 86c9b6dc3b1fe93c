#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs one or more workloads N times, each with another seed, and prints
every metric's median, first and third quartiles and spread (the
quartile distance as a share of the median, from
statistics.quantiles(values, n=4)). A spread above the metric's bound in
BENCHMARK.json is flagged FAIL (setup_s excepted: its drift is judged by
its median); one above a third of the bound is flagged WIDE.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 100
    python3 perfbench/steady.py --workload tenant-mix --runs 5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result line")
    return json.loads(lines[-1])


def report(workload, results, bounds, verbose):
    bad = 0
    wrong = [r for r in results if not r["correct"] or r["failed"]]
    print(f"== {workload}: {len(results)} runs, {len(wrong)} incorrect")
    bad += len(wrong)
    print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "FAIL"
                bad += 1
            elif spread > bound / 3:
                flag = "WIDE"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:28} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound_text:>6} "
              f"{unit} {flag}")
        if verbose:
            print("      runs: " + " ".join(f"{v:.6g}" for v in values))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    options = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    command = bench["command"]
    seconds = options.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = options.workload or [w["name"] for w in bench["workloads"]]
    if options.runs < 2:
        sys.exit("--runs must be at least 2")

    bad = 0
    for workload in workloads:
        results = []
        for i in range(options.runs):
            seed = options.first_seed + i
            results.append(run_once(command, workload, seed, seconds, options.trace))
        bad += report(workload, results, bounds, options.verbose)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
