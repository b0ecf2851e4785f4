#!/usr/bin/env python3
"""Measure the reuse-distance analytical fast path: wall clock of the
full Figure-3 grid via the exact Mattson + tag-array sweep versus the
model evaluated from a recorded ".rdp" profile sidecar, and write
BENCH_rd.json.

For every program the driver times the live exact sweep (the engine
behind results/fig3.csv), then records the trace + profile sidecar
once (untimed), then times `--sweep model --replay STORE` -- which
loads the sidecar and predicts every curve with neither fiber
execution nor trace replay.  The model output from the sidecar is
byte-compared against the model output of the live profiling run, so
the fast path is proven to change wall clock only.

The acceptance target: the model sweep beats the exact sweep by >=
10x on the full grid (in practice it is orders of magnitude beyond
that -- the sidecar is a few hundred counters per processor and the
grid evaluation is microseconds).

Usage: scripts/bench_rd.py [--build build] [--procs 32] [--scale 1.0]
                           [--apps fft,ocean,...] [--reps 2]
Writes BENCH_rd.json in the repository root.
"""

import argparse
import json
import os
import sys
import tempfile

import benchlib

APPS = ["fft", "lu", "radix", "ocean", "water-nsq", "water-sp",
        "barnes", "fmm", "cholesky", "raytrace", "volrend",
        "radiosity"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--procs", type=int, default=32)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--apps", default=",".join(APPS))
    ap.add_argument("--reps", type=int, default=2)
    args = ap.parse_args()

    os.chdir(benchlib.repo_root())
    exe = os.path.join(args.build, "bench", "fig3_working_sets")
    base = [exe, "--procs", str(args.procs), "--scale",
            str(args.scale), "--csv"]

    apps = {}
    exact_total = 0.0
    model_total = 0.0
    mismatches = []
    for app in args.apps.split(","):
        with tempfile.TemporaryDirectory() as td:
            store = os.path.join(td, "store")
            live = os.path.join(td, "model_live.csv")
            fast = os.path.join(td, "model_fast.csv")
            exact_s = benchlib.time_cmd(
                base + ["--app", app, "--sweep", "exact"], args.reps)
            # Record once (untimed): live run writing the trace and
            # the profile sidecar next to it.
            benchlib.time_cmd(
                base + ["--app", app, "--sweep", "model", "--record",
                        store], 1, capture_to=live)
            model_s = benchlib.time_cmd(
                base + ["--app", app, "--sweep", "model", "--replay",
                        store], args.reps, capture_to=fast)
            sidecars = [f for f in os.listdir(store)
                        if f.endswith(".rdp")]
            with open(live, "rb") as f:
                live_bytes = f.read()
            with open(fast, "rb") as f:
                fast_bytes = f.read()
        identical = live_bytes == fast_bytes
        if not identical or len(sidecars) != 1:
            mismatches.append(app)
        apps[app] = {
            "exact_seconds": exact_s,
            "model_seconds": model_s,
            "speedup": exact_s / model_s if model_s else 0.0,
            "model_output_identical": identical,
        }
        exact_total += exact_s
        model_total += model_s
        print(f"{app}: exact {exact_s:.3f}s -> model {model_s:.4f}s "
              f"({exact_s / model_s if model_s else 0.0:.0f}x, "
              f"{'ok' if identical else 'OUTPUT MISMATCH'})")

    speedup = exact_total / model_total if model_total else 0.0
    report = {
        "description": "Full Figure-3 grid: exact Mattson + tag-array "
                       "sweep vs reuse-distance model from a recorded "
                       "profile sidecar (model outputs byte-compared "
                       "live vs sidecar)",
        "provenance": benchlib.provenance(args.build),
        "procs": args.procs,
        "scale": args.scale,
        "reps": args.reps,
        "apps": apps,
        "exact_total_seconds": exact_total,
        "model_total_seconds": model_total,
        "suite_speedup": speedup,
        "target_speedup": 10.0,
        "target_met": speedup >= 10.0,
    }
    benchlib.write_report("BENCH_rd.json", report)
    print(json.dumps({k: report[k] for k in
                      ("exact_total_seconds", "model_total_seconds",
                       "suite_speedup", "target_met")}, indent=2))
    if mismatches:
        print("MISMATCH: " + ",".join(mismatches), file=sys.stderr)
        return 1
    return 0 if speedup >= 10.0 else 1


if __name__ == "__main__":
    sys.exit(main())
