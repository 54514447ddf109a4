#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload ingest|audit|burst_day \
        --seed N --seconds N --trace 0|1

The executable is built with dune into the build directory named by
CARGO_TARGET_DIR (default .bench_build), with dune's shared cache
disabled so nothing is written outside the checkout. Build output goes
to stderr; the benchmark's own stdout is passed through, and its last
line is the JSON result. With --trace 1 the recorded spans are written
to <build dir>/perfbench/trace-<workload>-<seed>.tsv.
"""

import os
import subprocess
import sys


def arg_value(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    for var in ("XDG_CACHE_HOME", "XDG_STATE_HOME", "XDG_CONFIG_HOME"):
        env[var] = os.path.join(os.path.abspath(build_dir), "xdg")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
         "--display", "quiet", "./perfbench/wormbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "wormbench.exe")
    if arg_value(argv, "--trace") == "1":
        out_dir = os.path.join(build_dir, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        name = "trace-%s-%s.tsv" % (arg_value(argv, "--workload"), arg_value(argv, "--seed"))
        argv = argv + ["--trace-out", os.path.join(out_dir, name)]
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
