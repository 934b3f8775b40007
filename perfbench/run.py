#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
engine (../src) and the harness in Release mode under $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild incrementally. The harness's
readable report goes to stderr; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Workloads: whatif_mix,
rollup_dashboard, edit_feed, outofcore_scan (see harness/main.cc).

--self-test builds and runs the harness's own unit tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("whatif_mix", "rollup_dashboard", "edit_feed", "outofcore_scan")
# Each run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/")
        return None
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the build tree too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("build failed")
        return None
    return build_dir


def run(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    target = "perfbench_test" if args.self_test else "perfbench"
    build_dir = build(target)
    if build_dir is None:
        return 2
    binary = os.path.join(build_dir, target)
    if not os.path.isfile(binary):
        log("%s was not built (GoogleTest missing?)" % target)
        return 2
    if args.self_test:
        return subprocess.run([binary], stdout=sys.stderr).returncode

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
