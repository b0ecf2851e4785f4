"""Shared helpers for the repository's benchmark drivers.

Every BENCH_*.json producer (bench_simcore.py, bench_memsys.py,
bench_suite.py) needs the same things: google-benchmark JSON parsing,
best-of-N wall-clock timing of a subprocess, the provenance of the
measurement, and a consistently formatted report file in the
repository root.
"""

import json
import os
import subprocess
import time


def repo_root():
    """Absolute path of the repository root (parent of scripts/)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_cpus():
    """Usable CPU count of this host.  Prefers the scheduling affinity
    mask (containers and cgroup-limited CI runners often expose fewer
    usable cores than os.cpu_count() reports)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def provenance(build):
    """Where a measurement comes from: host CPUs, the git commit of the
    measured tree (and whether it had uncommitted changes), and the
    CMake build type of the measured build directory."""
    def git(*argv):
        try:
            return subprocess.run(
                ["git"] + list(argv), cwd=repo_root(), check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    build_type = None
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "host_cpus": host_cpus(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "build_type": build_type,
    }


def run_micro(build, benchmark_filter, unit):
    """Run bench/micro_simthroughput with a --benchmark_filter and
    return {name: {"<unit>s_per_sec", "ns_per_<unit>"}} keyed by the
    benchmark name (the /real_time suffix stripped)."""
    exe = os.path.join(build, "bench", "micro_simthroughput")
    out = subprocess.run(
        [exe, "--benchmark_filter=" + benchmark_filter,
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    data = json.loads(out)
    micro = {}
    for b in data["benchmarks"]:
        name = b["name"].replace("/real_time", "")
        per_sec = b["items_per_second"]
        micro[name] = {
            unit + "s_per_sec": per_sec,
            "ns_per_" + unit: 1e9 / per_sec,
        }
    return micro


def time_cmd(cmd, reps, capture_to=None):
    """Best-of-N wall clock of a subprocess.  With capture_to, the
    final rep's stdout is also written to that path (bytes)."""
    best = None
    stdout = None
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, check=True, capture_output=True)
        dt = time.monotonic() - t0
        best = dt if best is None else min(best, dt)
        stdout = proc.stdout
    if capture_to is not None:
        with open(capture_to, "wb") as f:
            f.write(stdout)
    return best


def write_report(filename, report):
    """Write a BENCH_*.json report in the repository root."""
    with open(os.path.join(repo_root(), filename), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
