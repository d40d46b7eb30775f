#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload rubis-paper --seed 1 --seconds 20 --trace 0

The Go build keeps its cache, temporary files and binary under
.bench_build/ at the repository root, so nothing is written outside the
checkout. All arguments are passed to the benchmark binary; its last line
of standard output is the JSON result (see perfbench/README.md).
"""

import os
import shutil
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go command on PATH", file=sys.stderr)
        return 1
    exe = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", exe, "."], cwd=bench_dir, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe, "-root", root] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
