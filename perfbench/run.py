#!/usr/bin/env python3
"""Benchmark of record for the AXI4MLIR reproduction.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ and runs one workload:

    python3 perfbench/run.py --workload accel_matmul --seed 1 --seconds 10 --trace 0

The program's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("accel_matmul", "cpu_linalg", "compile_sweep", "serve_pool")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build(root):
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=root, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], cwd=root, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("error: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # configs/ is read relative to the checkout root.
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
