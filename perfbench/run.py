#!/usr/bin/env python3
"""Build and run the `pimsched serve` benchmark.

    python3 perfbench/run.py --workload dp-closed --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the daemon (bin/pimsched.exe) and
the benchmark program (perfbench/pimbench.exe) from source into
.bench_build/, then runs it; it prints a report and, as its
last line, the JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
TARGETS = ["./bin/pimsched.exe", "./perfbench/pimbench.exe"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", *TARGETS],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
    except FileNotFoundError:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 1

    exe = os.path.join(BUILD_DIR, "default")
    run = subprocess.run(
        [os.path.join(exe, "perfbench", "pimbench.exe"),
         "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--daemon", os.path.join(exe, "bin", "pimsched.exe"),
         "--out", os.path.join(".bench_build", "perfbench")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
