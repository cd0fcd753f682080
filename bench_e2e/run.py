#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the orbis workflow (README.md).

Usage, from the root of the repository:

    python3 bench_e2e/run.py --workload hot3k --seed 1 --seconds 25 --trace 0

Builds the library and the `orbis_e2e` program from source into
`.bench_build/bench_e2e`, builds the workload's inputs from the seed
(several times, reporting the median as `setup_s`), then runs the workload
for about `--seconds` seconds.  The last line of standard output is one
JSON object: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("hot3k", "pa_metrics", "pa_large", "service_mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 60


def fail(message):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the program up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"library source not found: {os.path.join(ROOT, needed)}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "orbis_e2e",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "orbis_e2e")


def setup(binary, workload, seed, work_dir):
    result = subprocess.run(
        [binary, "setup", "--workload", workload, "--seed", str(seed),
         "--dir", work_dir],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        fail("setup failed")
    fields = result.stdout.split()
    if len(fields) < 2 or fields[0] != "setup_s":
        fail(f"unexpected setup output: {result.stdout!r}")
    print(result.stdout.strip())
    return fields[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "work", f"{args.workload}-seed{args.seed}")
    setup_s = setup(binary, args.workload, args.seed, work_dir)
    sys.stdout.flush()
    result = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--dir", work_dir, "--state-dir", os.path.join(BUILD_DIR, "state"),
         "--setup-s", setup_s],
        stdout=sys.stdout, stderr=sys.stderr,
        timeout=args.seconds * 4 + 60, check=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
