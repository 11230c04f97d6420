#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/main.exe with dune
(cache disabled, so nothing is written outside the tree), then runs it
with the same arguments; its last line of output is the JSON result.
Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ROOT, "./perfbench/main.exe"]
    try:
        code = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    out = os.path.join(HERE, "out")
    return run([EXE, *sys.argv[1:], "--out", out], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
