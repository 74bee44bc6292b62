#!/usr/bin/env python3
"""Build and run the WANify end-to-end benchmark.

Run from the root of a checkout:

    python3 wanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call configures and builds libwanify plus bench_wanify into
$CARGO_TARGET_DIR (default .bench_build) with CMake; only the first
compiles everything, later calls rebuild what changed. All build output
goes to standard error, so the last line of standard output is
bench_wanify's JSON result. Extra flags (--spans PATH, --smoke) are
passed through.

bench_wanify runs with WANIFY_THREADS=1 unless the caller sets it: on a
shared 4-vCPU VM the wall time of the pool's parallel sections (the
predictor fit in set-up, retrains, serve planning) swung by up to 3x
with neighbour load, while single-threaded work swung by about 20%.
"""

import os
import subprocess
import sys

PACKAGE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.path.dirname(PACKAGE)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    jobs = str(min(len(os.sched_getaffinity(0)), 4))

    steps = [
        ["cmake", "-S", PACKAGE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "bench_wanify", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(step))
            return 1

    env = dict(os.environ)
    env.setdefault("WANIFY_THREADS", "1")
    binary = os.path.join(build, "bench_wanify")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
