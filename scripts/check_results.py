#!/usr/bin/env python3
"""Regenerate the committed results/ files from a build and
byte-compare each with its committed copy: results are a function of
the source tree.

MANIFEST names, for every file a binary produces, the runs that
produce it at paper scale.  A file is the concatenation of its runs'
outputs, every run after the first without its CSV header line; that
is how results/races.csv holds the line-grain and the word-grain
census (results/races.txt).  A run whose arguments contain "{out}"
writes that file instead of stdout.  EXCLUDED names the results/ files
no run reproduces byte for byte, each with the reason; any other file
in results/ is an error, so a result cannot be committed without a way
to regenerate it.

Usage: scripts/check_results.py [--build build] [--jobs 4]
                                [--only fig2_synchronization.txt,...]
Exits 1 when a regenerated file differs from the committed one or a
run fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

import benchlib

RACES = ["--app", "all", "--procs", "8", "--scale", "0.25"]

# (results file, [(binary, args), ...])
MANIFEST = [
    ("table1_characterization.txt", [("table1_characterization", [])]),
    ("fig1_speedups.txt", [("fig1_speedups", [])]),
    ("fig1.csv", [("fig1_speedups", ["--csv"])]),
    ("fig2_synchronization.txt", [("fig2_synchronization", [])]),
    ("fig3_working_sets.txt", [("fig3_working_sets", [])]),
    ("fig3.csv", [("fig3_working_sets", ["--csv"])]),
    ("fig3_model.csv",
     [("fig3_working_sets", ["--sweep", "model", "--csv"])]),
    ("table2_working_sets.txt", [("table2_working_sets", [])]),
    ("fig4_traffic.txt", [("fig4_traffic", [])]),
    ("fig4.csv", [("fig4_traffic", ["--csv"])]),
    ("fig5_ocean_scaling.txt", [("fig5_ocean_scaling", [])]),
    ("fig5.csv", [("fig5_ocean_scaling", ["--csv"])]),
    ("table3_comm_comp.txt", [("table3_comm_comp", [])]),
    ("fig6_small_cache.txt", [("fig6_small_cache", [])]),
    ("fig6.csv", [("fig6_small_cache", ["--csv"])]),
    ("fig7_miss_classification.txt",
     [("fig7_miss_classification", [])]),
    ("fig7.csv", [("fig7_miss_classification", ["--csv"])]),
    ("ablation_protocol.txt", [("ablation_protocol", [])]),
    ("ablation.csv", [("ablation_protocol", ["--csv"])]),
    ("interconnect.csv", [("interconnect_traffic", ["--csv"])]),
    ("races.csv", [
        ("splash2run", RACES + ["--race", "line", "--csv", "{out}"]),
        ("splash2run", RACES + ["--race", "word", "--csv", "{out}"]),
    ]),
]

EXCLUDED = {
    "micro_simthroughput.txt":
        "host timings of micro_simthroughput; they vary run to run",
    "fig3_model_error.csv":
        "the model-error gate's bounds, written by "
        "check_model_error.py write-table from Both-mode sweeps",
    "plot_figures.gp": "gnuplot script over the CSVs; written by hand",
    "races.txt": "notes on races.csv and the commands behind it; "
                 "written by hand",
}


def binary(build, name):
    sub = "src" if name == "splash2run" else "bench"
    return os.path.join(build, sub, name)


def regenerate(build, jobs, runs, td):
    """Bytes of the file @p runs produce, or None if a run failed."""
    parts = []
    for i, (name, args) in enumerate(runs):
        out = os.path.join(td, f"run{i}.out")
        argv = [binary(build, name), "--jobs", str(jobs)]
        argv += [out if a == "{out}" else a for a in args]
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(f"{' '.join(argv)} exited "
                             f"{proc.returncode}:\n"
                             f"{proc.stderr.decode(errors='replace')}")
            return None
        data = proc.stdout
        if "{out}" in args:
            with open(out, "rb") as f:
                data = f.read()
        if i > 0:
            data = data.split(b"\n", 1)[1]
        parts.append(data)
    return b"".join(parts)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--only", default="",
                    help="comma-separated subset of results/ files")
    args = ap.parse_args()
    build = os.path.abspath(args.build)
    os.chdir(benchlib.repo_root())

    manifest = dict(MANIFEST)
    only = [f for f in args.only.split(",") if f]
    unknown = [f for f in only if f not in manifest]
    unlisted = sorted(set(os.listdir("results")) - set(manifest) -
                      set(EXCLUDED))
    if unknown or unlisted:
        for f in unknown:
            print(f"{f}: not in the manifest")
        for f in unlisted:
            print(f"results/{f}: neither in the manifest nor excluded")
        return 1

    failed = []
    for name, runs in MANIFEST:
        if only and name not in only:
            continue
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as td:
            data = regenerate(build, args.jobs, runs, td)
        with open(os.path.join("results", name), "rb") as f:
            same = data == f.read()
        status = ("identical" if same
                  else "run failed" if data is None else "DIFFERS")
        print(f"{name}: {status} ({time.monotonic() - start:.1f} s)",
              flush=True)
        if not same:
            failed.append(name)
    if failed:
        print(f"{len(failed)} file(s) not regenerated: "
              f"{', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
