#!/usr/bin/env python3
"""Measure the execution-core cost and write BENCH_simcore.json.

Two measurements of the fiber interleaver:

 1. Context-switch cost: the BM_SchedulerPingPong_Fiber and
    BM_SchedulerYield_Fiber microbenchmarks from
    bench/micro_simthroughput (each reports switches per second of
    wall time; ns/switch = 1e9 / that).
 2. End-to-end: wall clock of a full splash2run characterization
    (FFT, 64K points, 32 processors, quantum 10 so switches dominate),
    best of N.

Usage: scripts/bench_simcore.py [--build build] [--reps 3]
Writes BENCH_simcore.json in the repository root.
"""

import argparse
import json
import os
import sys

import benchlib


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    os.chdir(benchlib.repo_root())

    micro = benchlib.run_micro(args.build, "PingPong|Yield", "switch")

    exe = os.path.join(args.build, "src", "splash2run")
    e2e_args = ["--app", "fft", "--procs", "32", "--n", "16",
                "--quantum", "10"]
    seconds = benchlib.time_cmd([exe] + e2e_args, args.reps)

    report = {
        "description": "Execution-core cost: fiber context switches "
                       "and a switch-heavy end-to-end run",
        "provenance": benchlib.provenance(args.build),
        "context_switch": micro,
        "end_to_end": {
            "workload": " ".join(e2e_args),
            "reps": args.reps,
            "seconds": seconds,
        },
    }
    benchlib.write_report("BENCH_simcore.json", report)
    print(json.dumps(report["context_switch"], indent=2))
    print(json.dumps(report["end_to_end"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
