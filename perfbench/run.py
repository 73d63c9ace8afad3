#!/usr/bin/env python3
"""The one command of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root. It builds ufilter_server and the ufbench
load generator in Release mode from the sources next to it (into
$CARGO_TARGET_DIR, default .bench_build), then runs ufbench, which prints
every metric with its unit and sample count and, as its last line, one JSON
object with "correct", "attempted", "failed" and "metrics". Result files and
trace files land in .bench_out/. `--workload all` runs every workload in
turn and ends with one combined JSON line. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_small", "cold_large", "mixed_replicated"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ufilter sources next to perfbench/ (need ../CMakeLists.txt "
             "and ../src)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "ufbench",
                  "ufilter_server", "--parallel", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def run_one(build_dir, workload, args):
    cmd = [os.path.join(build_dir, "ufbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(build_dir, "ufilter", "ufilter_server"),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build_dir = build()

    if args.workload != "all":
        code, lines = run_one(build_dir, args.workload, args)
        print("\n".join(lines), flush=True)
        return code

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines = run_one(build_dir, workload, args)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            total["correct"] = False
            worst = worst or 1
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][workload + "/" + name] = metric
    print(json.dumps(total), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
