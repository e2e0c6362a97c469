#!/usr/bin/env python3
"""Build the served-path benchmark from source, then run it.

Run from the root of the repository:

    python3 servebench/run.py --workload ingest-countmin-zipf --seed 1 \
        --seconds 10 --trace 0

The build goes to dune's _build directory in release profile; its output
goes to stderr so that stdout carries only the benchmark's own lines, the
last of which is the JSON result. Exits non-zero without a result when the
build fails (for example outside a full checkout) or the run overruns.
"""

import os
import subprocess
import sys

TARGET = os.path.join("servebench", "servebench.exe")
RUN_TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./" + TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", TARGET)
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
