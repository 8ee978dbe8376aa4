#!/usr/bin/env python3
"""Builds the scout_bench program from this source tree, then runs it.

    python3 scout_bench/run.py --workload follow --seed 7 --seconds 10 --trace 0
    python3 scout_bench/run.py --selftest

Every argument but --selftest goes to the program (see scout_bench.cc for
the workloads and metrics); the last line it prints is the JSON result.
The build lives in $CARGO_TARGET_DIR/scout_bench (default
.bench_build/scout_bench, relative to the current directory), and the
program runs inside it, so its page file and trace stay there too.
--selftest builds and runs scout_bench_test.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "scout_bench")


def build(out, targets):
    """Configures and builds `targets`; build logs go to stderr."""
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # Concurrent runs share one build.
        for cmd in (["cmake", "-S", HERE, "-B", out],
                    ["cmake", "--build", out, "-j", jobs, "--target", *targets]):
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True)


def main(argv):
    out = build_dir()
    selftest = argv == ["--selftest"]
    try:
        build(out, ["scout_bench", "scout_bench_test"] if selftest
              else ["scout_bench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"scout_bench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "scout_bench_test")] if selftest else \
        [os.path.join(out, "scout_bench"), *argv]
    try:
        return subprocess.run(cmd, cwd=out,
                              timeout=None if selftest else RUN_TIMEOUT_S
                              ).returncode
    except subprocess.TimeoutExpired:
        print(f"scout_bench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
