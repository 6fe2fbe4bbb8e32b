#!/usr/bin/env python3
"""Builds the store benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/ under the checkout; later runs rebuild only what
changed. The last line of standard output is the run's JSON result;
build logs and progress go to standard error. Scratch databases live
under .bench_build/ and are removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["paper", "wire"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no store sources at %s; run from the root of a full checkout"
             % os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "hm_perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)

    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S)
                 .returncode)

    workdir = os.path.join(root, ".bench_build", "scratch-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        # run() kills the child and waits for it when the timeout hits.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=None if args.workload == "all"
                              else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark exited with status %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
