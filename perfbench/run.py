#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload qa_unique --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, then traced
    python3 perfbench/run.py --self-test                   # the benchmark's own tests

The first call configures and builds the program and the benchmark from
source into .bench_build/ (a few minutes); later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 when every
correctness check passed, nonzero otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["qa_unique", "faq_ingest", "agent_sessions"]
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def run_one(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        if args.self_test:
            return subprocess.run([build("perfbench_test")]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    worst = 0
    for trace in (0, 1):
        for w in WORKLOADS:
            print(f"### {w} trace={trace}", flush=True)
            worst = max(worst, run_one(binary, w, args.seed, args.seconds, trace))
    return worst


if __name__ == "__main__":
    sys.exit(main())
