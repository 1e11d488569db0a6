#!/usr/bin/env python3
"""End-to-end benchmark of ccver.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the ccver libraries, from src/) into
.bench_build/perfbench, runs one workload, and prints the run record plus,
as the last stdout line, one JSON result object. Build output goes to
stderr. Exits non-zero without a result when the build, the run or the
result's shape fails. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    expected = expected_metrics(args.trace == "1")
    build()
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--specs", "specs",
               "--oracle", os.path.join("perfbench", "oracle", "verdicts.tsv"),
               "--scratch", os.path.join(BUILD_DIR, "run")]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit("perfbench: run failed with exit code %d" % run.returncode)

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    units = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != RESULT_KEYS or units != expected:
        sys.exit("perfbench: result does not match BENCHMARK.json: "
                 + (lines[-1] if lines else "(no output)"))
    for line in lines:
        print(line)
    print("perfbench: %s seed %d took %.1f s"
          % (args.workload, args.seed, time.monotonic() - started),
          file=sys.stderr)


if __name__ == "__main__":
    main()
