#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The first call configures and builds
perfbench/ (Release) into .bench_build/perfbench; later calls only let the
build tool check that the binary is current.  Build output goes to stderr,
so the last line of stdout is the benchmark's result JSON.  With --trace 1 the
spans are written to .bench_build/perfbench-trace/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pam_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no PAM sources to build under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(["cmake", "--build", BUILD, "--target", "pam_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the source preset's seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--describe", describe()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "perfbench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{seed}.json")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
