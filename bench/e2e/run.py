#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 bench/e2e/run.py --workload serve_chat --seed 1 --seconds 18 \
        --trace 0

Configures bench/e2e (Release) into .bench_build/e2e at the root of the
checkout on first use, rebuilds incrementally on every call, then runs
edkm_bench from the checkout root with the given arguments. Build output
goes to stderr so the benchmark's last stdout line stays its result.
Exits with the build's status when the build fails, else with the
benchmark's.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"


def run(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode


def main():
    if not (BUILD / "CMakeCache.txt").exists():
        rc = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"])
        if rc != 0:
            return rc
    rc = run(["cmake", "--build", str(BUILD), "-j4", "--target", "edkm_bench"])
    if rc != 0:
        return rc
    return subprocess.run([str(BUILD / "edkm_bench"), *sys.argv[1:]],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
