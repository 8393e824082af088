#!/usr/bin/env python3
"""Reruns one workload with successive seeds and prints, for every
end-to-end metric, its median, quartiles and spread against the bound in
BENCHMARK.json.

    python3 csqbench/spread.py --workload serve-wire --runs 10 [--first-seed 1]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
Python's statistics.quantiles(values, n=4). A metric is "steady" when its
spread is below a third of its bound; setup_s has no spread limit, only its
median is compared between two sets of runs. --save writes the values as
JSON; --compare reads such a file and also checks that each median moved by
no more than its bound in the worse direction.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "csqbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the measured values here")
    parser.add_argument("--compare", help="values saved by an earlier set")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    failed_shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run(args.workload, seed, bench["run_seconds"])
        failed_shares.append((result["failed"], result["attempted"]))
        line = ["seed %d: correct=%s" % (seed, result["correct"])]
        for m in metrics:
            value = result["metrics"][m["name"]]["value"]
            values[m["name"]].append(value)
            line.append("%s=%.6g" % (m["name"], value))
        print(" ".join(line), flush=True)

    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)["values"]
    print("%-18s %12s %12s %12s %8s %7s  %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in metrics:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        verdict = []
        if m["name"] != "setup_s":
            verdict.append("steady" if spread < m["bound"] / 3 else
                           "within bound" if spread <= m["bound"] else "WIDE")
        if before is not None:
            old = statistics.median(before[m["name"]])
            worse = (med - old) / old
            if m["better"] == "higher":
                worse = -worse
            verdict.append("median %+.1f%% %s" % (
                100 * worse, "ok" if worse <= m["bound"] else "WORSE"))
        print("%-18s %12.6g %12.6g %12.6g %8.4f %7.3f  %s"
              % (m["name"], med, q1, q3, spread, m["bound"], ", ".join(verdict)))
    print("failed/attempted per run:", sorted(set(
        "%d/%d" % fa for fa in failed_shares)))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values,
                       "failed": failed_shares}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
