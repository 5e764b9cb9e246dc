#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lookup-zipf --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's packages from the enclosing tree. This script builds it with
the local Go toolchain into .bench_build/ (build cache included, so
nothing is written outside the tree), then runs it with the given
arguments. The benchmark's exit status is passed through; when the build
fails, nothing is printed on standard output and the status is non-zero.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
