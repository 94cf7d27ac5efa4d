#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable is built with dune (the first run in a fresh
checkout compiles the libraries it links) and then replaces this
process, so its exit code and output are the benchmark's own: the last
line of standard output is the JSON result. Build output goes to
standard error. See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

TARGET = os.path.join("perfbench", "bench.exe")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune"):
        cmd = ["dune", "build", "--root", ".", "./" + TARGET]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune", "build", "--root", ".", "./" + TARGET]
    else:
        print("perfbench: neither dune nor opam is on PATH", file=sys.stderr)
        return 127
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)",
              file=sys.stderr)
        return 2
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
