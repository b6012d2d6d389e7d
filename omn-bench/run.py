#!/usr/bin/env python3
"""Build omn-bench from the enclosing checkout and run one workload.

    python3 omn-bench/run.py --workload design-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds a
Release tree in .bench_build (or $CARGO_TARGET_DIR when set); later calls
only re-run the incremental build.  The benchmark's stdout passes through
unchanged, so its last line is the result JSON.  `--workload all` runs the
three workloads one after another for a human reader.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["design-cold", "sweep-rounding", "serve-churn"]
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "omn-bench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                return False
        step = ["cmake", "--build", build_dir, "-j", jobs]
        return subprocess.call(step, stdout=log, stderr=log) == 0


def show_build_log(build_dir):
    try:
        with open(os.path.join(build_dir, "build.log")) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
    except OSError:
        pass


def run_workload(binary, scratch, args, workload):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    shutil.rmtree(scratch, ignore_errors=True)
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        sys.stderr.write("run.py: %s exceeded %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    if not build(root, build_dir):
        show_build_log(build_dir)
        sys.stderr.write("run.py: building omn-bench failed\n")
        return 1
    sys.stdout.flush()

    binary = os.path.join(build_dir, "omn_bench")
    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        status = max(status, run_workload(binary, scratch, args, workload))
    return status


if __name__ == "__main__":
    sys.exit(main())
