#!/usr/bin/env python3
"""Builds and runs the xrefine serving benchmark.

    python3 perfbench/run.py --workload cold_mem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the source tree. The first run configures and builds
the benchmark and the libraries it needs into .bench_build/perfbench; later
runs only rebuild what changed. The benchmark's own output is passed
through; its last line is one JSON object with the run's metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("cold_mem", "zipf_hot", "store_cold")
# A run takes well under a minute; anything near this is a hung server.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; exits non-zero with the log on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)


def run(argv):
    """Runs one command to completion, killing it if it overruns."""
    proc = subprocess.Popen(argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # The compiler's temporary files stay in the checkout too.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.self_test:
        return run([os.path.join(BUILD_DIR, "perfbench_selftest"), RUN_DIR])
    sys.stdout.flush()
    return run([os.path.join(BUILD_DIR, "perfbench"), "run",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--run-dir", RUN_DIR])


if __name__ == "__main__":
    sys.exit(main())
