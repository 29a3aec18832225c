#!/usr/bin/env python3
"""End-to-end planner benchmark: builds perfbench from source and runs a workload.

    python3 perfbench/run.py --workload plan-orion|serve-zonal|cancel-orion|all \
        --seed N --seconds S --trace 0|1

Run from the root of the source tree. The build, scratch files and span
dumps go to .bench_build/ there. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when the build fails, an output fails its correctness check or the
run exceeds its time limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("plan-orion", "serve-zonal", "cancel-orion")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nptsn_perfbench")
# The first run may build; build and workload together stay under 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def _child_env():
    """The environment for children: temporary files stay under .bench_build."""
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_bounded(command, timeout_s, capture=False):
    """Runs a command in its own process group; kills the group on timeout.

    Returns the exit code, or None on timeout; with capture, also the output.
    """
    process = subprocess.Popen(command, start_new_session=True, env=_child_env(),
                               stdout=subprocess.PIPE if capture else None,
                               stderr=subprocess.STDOUT if capture else None)
    try:
        output, _ = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, b""
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    return process.returncode, output or b""


def build(timeout_s):
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        print("run.py: run from the root of the nptsn source tree", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nptsn_perfbench",
                  "-j", jobs])
    for step in steps:
        code, output = run_bounded(step, timeout_s, capture=True)
        if code is None:
            print("run.py: build timed out", file=sys.stderr)
            return False
        if code != 0:
            sys.stderr.write(output.decode(errors="replace")[-4000:])
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build(BUILD_TIMEOUT_S):
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}", flush=True)
        command = [BINARY, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", os.path.join(".bench_build", "work")]
        code, _ = run_bounded(command, RUN_TIMEOUT_S)
        if code is None:
            print(f"run.py: {workload} exceeded its time limit", file=sys.stderr)
            code = 3
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
