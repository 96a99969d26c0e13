#!/usr/bin/env python3
"""Builds the ecoDB benchmark from source and runs one measurement.

Run from the repository root:

  python3 ecobench/run.py --workload pvc_q5 --seed 1 --seconds 20 --trace 0
  python3 ecobench/run.py --workload sort_drain --seed 1 --seconds 20 --trace 1
  python3 ecobench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Build output goes to stderr; the benchmark's stdout is
passed through, and its last line is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pvc_q5", "qed_selections", "sort_drain")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src", "ecodb")):
        print("run.py: no ecoDB source tree next to ecobench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "ecobench",
                  "-j", "4"])
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="check that simulated metrics and counts repeat")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        p.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    binary = os.path.join(out_dir, "ecobench")
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(out_dir, "trace_spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    if not args.self_test:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("run.py: no JSON result from the benchmark", file=sys.stderr)
            return 1
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("run.py: malformed result", file=sys.stderr)
            return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
