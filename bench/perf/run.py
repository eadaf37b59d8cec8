#!/usr/bin/env python3
"""Run one workload of the perf benchmark and print its result line.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds lynx_bench from source into build/perf/ on first use (about a
minute), runs the workload in it, and prints as the last line of
standard output one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones
of the untraced run; with --trace 1 they are the per-layer ones, and
the workload's trace files are written to build/perf/trace/. The exit
code is non-zero if the build fails or any self-check does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "perf")


def build():
    """Configure and bring lynx_bench up to date (both no-ops, well
    under a second, once built)."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "lynx_bench"],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: building lynx_bench failed: {e}")

    out = os.path.join(BUILD, "lynx_bench.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD, "lynx_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", out]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace")]
    code = subprocess.run(cmd).returncode
    try:
        with open(out) as f:
            r = json.load(f)["workloads"][args.workload]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"run.py: lynx_bench exited {code} without a result: {e}")

    correct = bool(r["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": r["layers"] if args.trace else r["metrics"],
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
