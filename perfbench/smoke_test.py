#!/usr/bin/env python3
"""Smoke tests for the benchmark, at tiny simulated lengths.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  - the metrics printed with --trace 0 and --trace 1 are exactly the
    end_to_end and per_layer lists of BENCHMARK.json, with their units;
  - every correctness check passed;
  - the instruction count is the sum of the System::run arguments, which
    the machines confirm by retiring exactly that many;
  - a traced pass and an untraced pass of the same seed give the same
    simulated digest, within one run and across runs.
It also checks that run.py fails without printing a result in a directory
holding only BENCHMARK.json and the benchmark's own files.
Exit status 0 when every test passed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
SEED = "7"

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)
    return ok


def run(workload, trace, cwd=ROOT, timeout=900):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "0.1",
           "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=cwd,
                          timeout=timeout)
    return proc.returncode, proc.stdout.decode().strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    for workload in (w["name"] for w in bench["workloads"]):
        details = {}
        for trace in (0, 1):
            code, lines = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            if not expect(code == 0 and len(lines) >= 2, tag + " runs"):
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            details[trace] = detail
            expect(sorted(result) ==
                   ["attempted", "correct", "failed", "metrics"],
                   tag + " prints exactly the result keys")
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, tag + " passes every check")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(printed == wanted[trace],
                   tag + " prints the BENCHMARK.json metrics and units")
            expect(detail["retired"] == detail["instructions"],
                   tag + " counts exactly the System::run instructions")
            if trace:
                expect(detail["traced_digest"] == detail["digest"],
                       tag + " traced pass equals untraced pass")
        if 0 in details and 1 in details:
            expect(details[0]["digest"] == details[1]["traced_digest"],
                   workload + " traced run equals untraced run")

    # Only BENCHMARK.json and the benchmark's files: no library to build.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(bench["workloads"][0]["name"], 0, cwd=bare,
                      timeout=170)
    expect(code != 0 and not any('"correct"' in line for line in lines),
           "a directory without the library fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
