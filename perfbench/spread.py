#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload paper_suite --seeds 1-10

For each metric it prints the median over the runs and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. Exits non-zero if a
run fails or reports failed checks.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, done.returncode,
                                               done.stderr[-2000:]))
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: %d of %d failed" % (seed, result["failed"],
                                                   result["attempted"]))
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        print("seed %d: %s" % (seed, json.dumps(values)), flush=True)

    print("%-28s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name in sorted(runs[0]):
        values = [run[name] for run in runs]
        median = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and median != 0:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / abs(median)
        bound = bounds.get(name)
        print("%-28s %14.6g %8.4f %6s" % (name, median, spread,
                                          "" if bound is None else bound))


if __name__ == "__main__":
    main()
