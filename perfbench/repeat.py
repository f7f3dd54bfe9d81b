#!/usr/bin/env python3
"""Run one workload N times, each with its own seed, and summarise.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--seed 1]
                                [--seconds S] [--trace 0|1]

Seeds are SEED, SEED+1, ... For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median. An end-to-end metric whose spread exceeds its bound
in BENCHMARK.json is flagged. Exit status 1 when a run fails or a
metric is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    failed_runs = 0
    for i in range(args.runs):
        seed = args.seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if result is None or not result["correct"]:
            failed_runs += 1
            print("seed %d: FAILED" % seed)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, m["value"])
            for n, m in result["metrics"].items() if n in bounds)))

    flagged = []
    print("\n%-44s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
            flagged.append(name)
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print("%-44s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name + " [" + units[name] + "]", med, q1, q3, spread,
               "" if bound is None else "%.3g" % bound, flag))
    if failed_runs:
        print("%d run(s) failed" % failed_runs)
    return 1 if failed_runs or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
