#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tenants --seed 1 --seconds 20 --trace 0

The harness (perfbench/bench.ml) is built with dune into the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset, and then
replaces this process. Its last line of output is one JSON object with
the keys correct, attempted, failed and metrics. The build directory
also holds its scratch files; with --trace 1 the spans it records are
written there as a TSV file.
"""

import os
import subprocess
import sys


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (dune-project and lib/ not found)")
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # dune's shared cache lives outside the checkout; keep the build inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if built.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + argv + ["--work-dir", build_dir])


if __name__ == "__main__":
    main(sys.argv[1:])
