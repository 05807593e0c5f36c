#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe (and the libraries it links) from source
with dune into .bench_build/, then runs it with the same arguments. The
benchmark's own standard output is passed through, so its last line is
the result object; build output goes to standard error. Exits non-zero,
without a result, when the checkout lacks the sources to build from, the
build fails, the benchmark fails a check or it overruns its time limit.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 880


def run_timeout_s(seconds):
    """A --trace 1 run sets up, measures twice and runs the ladder:
    about 2 x seconds + 40 s. Leave room for that, and at least 170 s."""
    return max(170, 3 * seconds + 50)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Runs cmd to completion; kills it and waits for it on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 1)


def seconds_arg(args):
    """The value of --seconds, or 10 (the benchmark's default) when it is
    missing or malformed; the benchmark itself rejects a bad value."""
    try:
        return int(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        return 10


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a checkout: %s is missing" % needed)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code, 1)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    code = run([exe] + sys.argv[1:], run_timeout_s(seconds_arg(sys.argv[1:])))
    sys.exit(code)


if __name__ == "__main__":
    main()
