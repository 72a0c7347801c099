#!/usr/bin/env python3
"""Build the pipesyn benchmark from source and run one workload.

Run from the root of a pipesyn checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The benchmark binary is built with dune into .bench_build/ (release profile,
dune cache off, so nothing is written outside the checkout), then run with
the same arguments. Its standard output is passed through; the last line is
the JSON summary. Exits non-zero, without a summary, when the checkout does
not hold the sources or the build fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main() -> int:
    root = os.getcwd()
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(
            "perfbench: run from the root of a pipesyn checkout (missing: %s)"
            % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    build = subprocess.run(
        [
            "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
            "--profile", "release", "--cache", "disabled", "-j", "2", TARGET,
        ],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
