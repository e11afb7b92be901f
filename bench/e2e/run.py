#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, prepares the model once, runs one
workload and passes its output through (the last line is the result).

    python3 bench/e2e/run.py --workload chatter --seed 1 --seconds 8 --trace 0

Run from the root of a nerglob checkout. The build tree is build/e2e; the
first run configures, builds and trains model.ngb there (minutes), later
runs reuse it. Exits non-zero, printing no result, when the checkout cannot
be built or the run's output checks fail.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def step(cmd):
    """Runs a build/prepare command with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed ({result.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j4", "--target", "bench_e2e"])
    if not os.path.exists(os.path.join(BUILD, "model.ngb")):
        step([BINARY, "--prepare"])

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace")
    try:
        result = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
