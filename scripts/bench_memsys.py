#!/usr/bin/env python3
"""Measure the memory-path cost and write BENCH_memsys.json.

Three measurements:

 1. Reference cost: the BM_MemSysHit / BM_MemSysMiss / BM_SweepAccess /
    BM_ReuseDistAccess / BM_Delivery_Batched / BM_Broadcast
    microbenchmarks from bench/micro_simthroughput (each reports
    references per second; ns/ref = 1e9 / that).
    BM_MemSysHitProto/<name> and BM_MemSysMissProto/<name> repeat the
    hit/miss measurements under every registered coherence protocol,
    so the table-driven dispatch can be compared across the zoo
    (BM_MemSysHit/Miss themselves are the MESI instances).
 2. End-to-end characterization: wall clock of a full splash2run
    (FFT, 32 processors), best of N.
 3. End-to-end working-set sweep: wall clock of the Figure 3 sweep
    (FFT, 32 processors, all 44 operating points), best of N.  The
    sweep dominates Figure 3 / Table 2 turnaround.

Gate: exits 1 when BM_SweepAccess costs more than SWEEP_GATE_NS
nanoseconds per reference (every Figure-3 operating point of one
processor updated for one reference).

Usage: scripts/bench_memsys.py [--build build] [--reps 3] [--n 16]
Writes BENCH_memsys.json in the repository root.
"""

import argparse
import json
import os
import sys

import benchlib

SWEEP_GATE_NS = 800.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--n", type=int, default=16,
                    help="FFT log2(points) for the end-to-end runs")
    args = ap.parse_args()

    os.chdir(benchlib.repo_root())

    micro = benchlib.run_micro(
        args.build, "MemSys|Sweep|ReuseDist|Delivery|Broadcast", "ref")

    run_exe = os.path.join(args.build, "src", "splash2run")
    run_args = [run_exe, "--app", "fft", "--procs", "32",
                "--n", str(args.n)]
    char_seconds = benchlib.time_cmd(run_args, args.reps)

    fig3_exe = os.path.join(args.build, "bench", "fig3_working_sets")
    fig3_args = [fig3_exe, "--app", "fft", "--procs", "32",
                 "--n", str(args.n), "--csv"]
    sweep_seconds = benchlib.time_cmd(fig3_args, args.reps)

    sweep_ns = micro["BM_SweepAccess"]["ns_per_ref"]
    report = {
        "description": "Memory-path cost: silent-hit fast path (per "
                       "protocol), reference delivery, working-set "
                       "sweep",
        "provenance": benchlib.provenance(args.build),
        "reference_cost": micro,
        "end_to_end_characterization": {
            "workload": " ".join(run_args[1:]),
            "reps": args.reps,
            "seconds": char_seconds,
        },
        "end_to_end_fig3_sweep": {
            "workload": " ".join(fig3_args[1:]),
            "reps": args.reps,
            "seconds": sweep_seconds,
        },
        "sweep_gate": {
            "metric": "BM_SweepAccess ns_per_ref",
            "limit": SWEEP_GATE_NS,
            "measured": sweep_ns,
            "pass": sweep_ns <= SWEEP_GATE_NS,
        },
    }
    benchlib.write_report("BENCH_memsys.json", report)
    print(json.dumps(report["end_to_end_characterization"], indent=2))
    print(json.dumps(report["end_to_end_fig3_sweep"], indent=2))
    print(json.dumps(report["sweep_gate"], indent=2))
    if not report["sweep_gate"]["pass"]:
        print("FAIL: BM_SweepAccess %.0f ns/ref exceeds %.0f"
              % (sweep_ns, SWEEP_GATE_NS), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
