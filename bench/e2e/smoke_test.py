#!/usr/bin/env python3
"""Drift guard between BENCHMARK.json and bench_e2e.

Runs every workload of BENCHMARK.json in --smoke mode, untraced and traced,
and fails when a run exits non-zero, fails an output check, or prints metric
names or units other than the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json declares. Trains model.ngb first if it is missing.

    python3 smoke_test.py --binary build/e2e/bench_e2e --benchmark BENCHMARK.json
"""
import argparse
import json
import os
import subprocess
import sys


def check(cmd, declared):
    """None when the run passes, else what went wrong."""
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return f"exit {run.returncode}"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True:
        return "output check failed"
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared.items()) - set(printed.items()))
        extra = sorted(set(printed.items()) - set(declared.items()))
        return f"missing {missing}, extra {extra}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    model = os.path.join(os.path.dirname(os.path.abspath(args.binary)), "model.ngb")
    if not os.path.exists(model):
        subprocess.run([args.binary, "--prepare"], check=True)

    failures = []
    for workload in benchmark["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            cmd = [args.binary, f"--workload={workload['name']}", "--seed=1",
                   "--smoke"] + (["--trace"] if trace else [])
            label = " ".join(cmd[1:])
            problem = check(cmd, {m["name"]: m["unit"] for m in benchmark[key]})
            print(f"{'FAIL' if problem else 'ok  '} {label}")
            if problem:
                failures.append(f"{label}: {problem}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
