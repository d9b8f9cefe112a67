#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload signoff_hw --seed 1 --seconds 12 --trace 0

The arguments are passed to the benchmark program unchanged (see
perfbench/README.md). The program is built with dune in the release
profile into the checkout's own _build directory, with the shared dune
cache off, so nothing outside the checkout is written. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error. Exits non-zero, printing no result, when the checkout
holds no buildable source.
"""

import os
import subprocess
import sys

TARGET = os.path.join("perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def main():
    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
         "./" + TARGET],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    env = dict(os.environ)
    # One domain: the engines must not pick up a pool size from the environment.
    env.pop("SECURE_EDA_JOBS", None)
    exe = os.path.join("_build", "default", TARGET)
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
