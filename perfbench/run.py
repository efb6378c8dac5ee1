#!/usr/bin/env python3
"""Build and run the AQuA-RS benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the AQuA-RS libraries from src/ plus the aqua_perfbench
program, Release) into .bench_build/perfbench/ at the repository root, then
runs one workload. The last line of standard output is the run's JSON
result; --workload all runs every workload in turn and ends with one JSON
object whose metric names are prefixed by the workload. The exit code is
nonzero when the build fails, a run fails its output checks, or a run
exceeds its time limit; a failed build prints no result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "aqua_perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ["udp_small", "inproc_small", "udp_deep", "sim_paper"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once and build incrementally; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build one at a time
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "aqua_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, parsed result or None)."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(SPANS_DIR, workload + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"perfbench: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None
    print("\n".join(lines), flush=True)
    code = proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1)
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    build()
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst or (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
