#!/usr/bin/env python3
"""Builds the perfbench binary from source (on first use) and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed to the binary (see perfbench/src/main.cc for the full list). It
prints its result as the last line of standard output; build output goes to standard error.
The build directory is $CARGO_TARGET_DIR if set, else .bench_build, relative to the repository
root; the compiler's temporary files go there too. A traced run also writes its spans to
<build dir>/spans-<workload>.csv.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def arg_value(argv, flag):
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def main(argv):
    bdir = build_dir()
    if not build(bdir):
        return 2
    cmd = [os.path.join(bdir, "perfbench")] + argv
    workload = arg_value(argv, "--workload")
    if arg_value(argv, "--trace") == "1" and workload and "--spans-out" not in argv:
        cmd += ["--spans-out", os.path.join(bdir, "spans-%s.csv" % os.path.basename(workload))]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
