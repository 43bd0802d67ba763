#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every call configures and builds
perfbench/ (and the senn library it links) into .bench_build/ with CMake in
Release mode; after the first call that is an incremental no-op. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero, printing no result, if the build fails (for example when the
library sources are missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(targets=("perfbench",)):
    """Configures and builds `targets`; returns the build directory."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)
    return BUILD


def main(argv):
    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "bin", "perfbench")
    return subprocess.run([binary, *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
