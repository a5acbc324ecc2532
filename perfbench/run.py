#!/usr/bin/env python3
"""KGNet benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-rw|serve-ml|train \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the repository's libraries and the
kgbench program from source (Release, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload. The workloads' parameters are
constants in their sources (perfbench/src). The last line of stdout is the
result object.
Exits non-zero, without a result line, if the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-rw", "serve-ml", "train")


def build(build_dir):
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=log, stderr=log)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "kgbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "kgbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
