#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the reclamation service.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the benchmark with the repository's
own library build into $CARGO_TARGET_DIR (default .bench_build); later
calls only check that the build is current. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result. Traces and
scratch snapshots go to .bench_out/. Exits nonzero, without a result,
when the build or the benchmark's self-test fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds; returns the binary directory or None."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                   "perfbench_selftest"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out


def main():
    out = build(build_dir())
    if out is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:] + [
        "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
