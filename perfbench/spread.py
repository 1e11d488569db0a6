#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [WORKLOAD ...]

Runs the untraced benchmark once per seed on each workload (all workloads
by default) and prints, per metric, the median and the interquartile
distance as a share of the median -- the spread that BENCHMARK.json's bound
must cover, computed with statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: incorrect result" % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            worst = max(worst, spread / bounds[name])
            print("%-16s %-16s median %12.6g  spread %6.2f%%  bound %4.0f%%  "
                  "values %s" % (workload, name, q2, spread * 100,
                                 bounds[name] * 100,
                                 " ".join("%.6g" % x for x in v)))
    print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
