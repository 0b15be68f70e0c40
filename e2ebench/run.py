#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the GEMS stack.

Run from the repository root:

    python3 e2ebench/run.py --workload bi_read --seed 1 --seconds 20 --trace 0

The first run configures and builds e2ebench/ (which compiles ../src) into
the build directory: $CARGO_TARGET_DIR when set, else .bench_build. Every
run then runs the benchmark's self-tests and the benchmark itself. The last
line of standard output is the result object; the metric names it carries
are checked against BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1). Build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def check(cmd, what, timeout=None):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(what + " failed: " + str(err))
    if done.returncode != 0:
        fail(what + " failed with exit code %d" % done.returncode)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configuring")
    check(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
           "--target", "e2e_bench", "e2e_selftest"], "building")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    # Compiler and benchmark scratch files stay inside the build directory.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    build(build_dir)
    check([os.path.join(build_dir, "e2e_selftest")], "self-tests", timeout=60)

    work_dir = os.path.join(build_dir, "run", args.workload)
    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("the benchmark exited with code %d" % done.returncode)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result object")
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
