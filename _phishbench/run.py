#!/usr/bin/env python3
"""Build the phishbench benchmark from source, then run it.

Run from the root of a checkout; every argument is passed to the benchmark:

    python3 _phishbench/run.py --workload hostile-feed --seed 42 --seconds 40 --trace 0

The Go build cache and temporary files, the binary, the round journals and
the span files all live under .bench_build/ in the checkout. Build output goes to standard
error, so the benchmark's JSON result stays the last line of standard
output. The exit code is the build's when it fails, else the benchmark's.
"""
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=tmp,
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(BUILD, "phishbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode or 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
