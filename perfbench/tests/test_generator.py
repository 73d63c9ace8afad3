#!/usr/bin/env python3
"""Self-tests of the benchmark's load generator.

    python3 perfbench/tests/test_generator.py

Run from the repository root; builds like perfbench/run.py does. Two checks:

1. No coordinated omission: SIGSTOP the hot_small primary once, for 200 ms,
   in the middle of the fixed-rate window. Latency is measured from the due
   time, so check_p99_us must show the stall, while the generator itself
   keeps sending on time (its late p99 stays small).
2. Replica visibility is measured, not assumed: SIGSTOP the follower once,
   for 200 ms, in the middle of the apply window. repl_visible_p99_ms must
   grow by most of the pause.

Exits 0 when both hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)

SECONDS = "12"
PAUSE_MS = 200


def measure(build_dir, seed, extra):
    out_dir = os.path.join(bench.ROOT, ".bench_out", "selftest")
    cmd = [os.path.join(build_dir, "ufbench"), "--workload", "hot_small",
           "--seed", str(seed), "--seconds", SECONDS, "--trace", "0",
           "--server-bin", os.path.join(build_dir, "ufilter", "ufilter_server"),
           "--out-dir", out_dir] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stdout)
        raise SystemExit("ufbench failed: " + " ".join(cmd))
    with open(os.path.join(out_dir, "hot_small-seed%d-trace0.json" % seed)) as f:
        result = json.load(f)
    e2e = {k: v["value"] for k, v in result["end_to_end"].items()}
    return e2e, result["generator"]


def main():
    build_dir = bench.build()
    ok = True

    base, base_gen = measure(build_dir, 7, [])
    stalled, stalled_gen = measure(build_dir, 7,
                                   ["--stall-primary-ms", str(PAUSE_MS)])
    print("stall: check_p99_us %.0f -> %.0f, generator late p99 %.0f -> %.0f us"
          % (base["check_p99_us"], stalled["check_p99_us"],
             base_gen["fixed_late_p99_us"], stalled_gen["fixed_late_p99_us"]))
    if stalled["check_p99_us"] < 0.5 * PAUSE_MS * 1000:
        print("FAIL: a %d ms stall does not show in check_p99_us" % PAUSE_MS)
        ok = False
    # A generator that waited for the stalled server would run ~PAUSE_MS
    # late; one that keeps its schedule stays within a few ms even on a
    # loaded host.
    if stalled_gen["fixed_late_p99_us"] > 0.05 * PAUSE_MS * 1000:
        print("FAIL: the generator fell behind its schedule during the stall")
        ok = False

    paused, _ = measure(build_dir, 7, ["--pause-follower-ms", str(PAUSE_MS)])
    print("follower pause: repl_visible_p99_ms %.1f -> %.1f"
          % (base["repl_visible_p99_ms"], paused["repl_visible_p99_ms"]))
    if paused["repl_visible_p99_ms"] < base["repl_visible_p99_ms"] + 0.5 * PAUSE_MS:
        print("FAIL: a %d ms follower pause does not show in "
              "repl_visible_p99_ms" % PAUSE_MS)
        ok = False

    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
