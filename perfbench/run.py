#!/usr/bin/env python3
"""Build and run the Horus cast benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which pulls in the
repository's libraries) under $CARGO_TARGET_DIR, default .bench_build; later
runs rebuild incrementally. Build output goes to a log file in the build
directory and is shown only when the build fails.

--workload all runs every workload for the given seed, one after another.
The last line of standard output is the JSON result of the (last) workload.
The exit code is non-zero when the build fails, a correctness check fails,
or the benchmark does not finish within its time limit.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["sim_lone_cast", "sim_burst_lossy", "udp_loopback"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "cast_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return os.path.join(bdir, "cast_bench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return None


def run_one(binary, bdir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.csv" % (workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no Horus sources next to perfbench/\n")
        return 1
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    sys.stdout.flush()
    worst = 0
    for w in (WORKLOADS if args.workload == "all" else [args.workload]):
        worst = max(worst, run_one(binary, bdir, w, args))
    return worst


if __name__ == "__main__":
    sys.exit(main())
