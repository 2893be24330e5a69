#!/usr/bin/env python3
"""End-to-end benchmark of the WALRUS library.

Usage (from the repository root):

    python3 perfbench/run.py --workload <extract_bound|table1_paged|live_mixed>
                             --seed <n> --seconds <n> --trace <0|1>

Builds the library and the benchmark binary from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, then runs one workload. With
--trace 0 the last line of standard output is the result object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
single-caller traced run. Scene pools are cached under perfbench/.inputs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "walrus.h")):
        fail(f"library sources not found under {ROOT}/src")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.abspath(os.path.join(ROOT, target))
    try:
        binary = build(os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    work_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    common = [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--cache-dir", os.path.join(HERE, ".inputs"),
        "--work-dir", work_dir,
        "--trace-dir", os.path.join(out_dir, "traces"),
    ]
    # Scene pools are generated (once per checkout) in a process of their
    # own, so generation never counts towards the run's memory or time.
    prepare = subprocess.run([binary, "--workload", "prepare"] + common,
                             stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if prepare.returncode != 0:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("cannot prepare the scene pools")
    command = [binary, "--workload", args.workload] + common
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark binary exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("benchmark binary printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    # Diagnostics first, the result object last.
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
