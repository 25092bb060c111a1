#!/usr/bin/env python3
"""mdw-bench: build the simulator from source and run one benchmark workload.

Usage (from the repository root):

    python3 mdwbench/run.py --workload contended64 --seed 1 --seconds 12 --trace 0

Configures mdwbench/CMakeLists.txt (the simulator library under src/
plus the mdw_bench program, Release build) into .bench_build/ at the
repository root, builds it incrementally, then runs mdw_bench. Its
last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; this script checks its
shape and re-prints it as its own last line. Build output goes to
stderr. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("contended64", "idle256", "scale1024")
# One benchmark run must end within 180 s, build check included.
RUN_LIMIT_S = 170


def die(message):
    print(f"mdw-bench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to mdwbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "mdw_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die(f"mdw_bench exceeded {RUN_LIMIT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        die(f"mdw_bench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("mdw_bench's last line is not JSON: " + lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("unexpected result keys: " + ", ".join(sorted(result)))
    print(f"# mdw_bench wall {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
