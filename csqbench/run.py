#!/usr/bin/env python3
"""Builds csqbench from the library sources in this checkout and runs one
workload, relaying its result as the last line of standard output.

    python3 csqbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/csqbench (default .bench_build/csqbench); the run's
artifacts and trace file go to a runs/ directory beside it. With
--workload all, every workload runs in its own process, one after another.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["train-csq", "infer-batch"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "csqbench"))


def build(out_dir):
    """Configures and builds the csqbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "--target", "csqbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("csqbench: build step failed: " + " ".join(step))
    return os.path.join(out_dir, "csqbench")


def run_one(binary, workload, seed, seconds, trace, work_dir):
    """Runs one workload in its own process; returns its parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("csqbench: %s did not finish within %d s"
                 % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("csqbench: %s failed with exit code %d"
                 % (workload, done.returncode))
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        sys.exit("csqbench: %s printed a malformed result" % workload)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)

    if args.workload != "all":
        result = run_one(binary, args.workload, args.seed, args.seconds,
                         args.trace, work_dir)
        print(json.dumps(result), flush=True)
        return 0

    results = {}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args.seed, args.seconds,
                         args.trace, work_dir)
        results[workload] = result
        print("%-12s correct=%s attempted=%d failed=%d"
              % (workload, result["correct"], result["attempted"],
                 result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-30s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
