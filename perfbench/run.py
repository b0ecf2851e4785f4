#!/usr/bin/env python3
"""Host-time benchmark of the SPLASH-2 characterization simulator.

Run from the root of a checkout:

  python3 perfbench/run.py --workload characterize|working_sets|replay \\
      --seed N --seconds S --trace 0|1

Builds perfbench_driver from source (perfbench/CMakeLists.txt), sets the
workload up, runs passes of the twelve programs for --seconds, checks the
simulated output of every operation, and prints one JSON object as the
last line of stdout.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics.  Progress, provenance and a readable table go to
stderr.  perfbench/README.md describes the workloads and metrics.

  python3 perfbench/run.py --pin

re-pins perfbench/expected.json from the current tree; do that only when
a change is meant to alter simulated output.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"

WORKLOADS = ("characterize", "working_sets", "replay")
DEFAULT_SEED = 1234  # harness::AppConfig::seed
# The bench binaries' --quick scale; perfbench/README.md says why.
SCALE = 0.25
# Configurations (operations) each program contributes per pass.
CONFIGS = {
    "characterize": ("1024k-4w-64b", "8k-4w-64b", "1024k-4w-128b"),
    "working_sets": ("sweep",),
    "replay": ("1024k-4w-64b",),
}
APPS = ("Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean", "Radiosity",
        "Radix", "Raytrace", "Volrend", "Water-Nsq", "Water-Sp")
WARMUP_APPS = "Cholesky,FFT,LU,Raytrace,Water-Nsq,Water-Sp"
SETUP_REPS = 5
MIN_SAMPLES = 3
# A run must end within 180 s of starting; every driver process is
# killed at this many seconds after the build.
DEADLINE_S = 165


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failure)."""


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4",
                  "--target", "perfbench_driver"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    exe = bdir / "perfbench_driver"
    if not exe.is_file():
        raise BenchError("driver binary missing after build")
    return exe


def provenance(exe, seed, scale):
    """Where the numbers come from: sources, build and host."""
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    cache = {}
    for line in (exe.parent / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith("//"):
            key, val = line.split("=", 1)
            cache[key.split(":")[0]] = val
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    r = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    return {
        "git_sha": sha,
        "source_sha256": h.hexdigest()[:16],
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": r.stdout.splitlines()[0] if r.stdout else cxx,
        "host_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "scale": scale,
    }


class Driver:
    """Runs perfbench_driver passes and checks their operations."""

    def __init__(self, exe, scale, apps, expected):
        self.exe = exe
        self.scale = scale
        self.apps = apps
        self.expected = expected
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.commands = {}

    def command(self, workload, seed, trace, store=None, apps=None):
        cmd = [str(self.exe), "--workload", workload, "--seed", str(seed),
               "--scale", repr(self.scale),
               "--trace", str(int(trace))]
        if store is not None:
            cmd += ["--store", str(store)]
        apps = apps or self.apps
        if apps:
            cmd += ["--apps", apps]
        return cmd

    def run(self, workload, seed, trace, store=None, apps=None):
        """One pass: (ops {name: line}, summary, process seconds).  ops
        and summary are None when the process failed."""
        cmd = self.command(workload, seed, trace, store, apps)
        role = "warm-up" if apps else workload
        self.commands.setdefault(f"{role} trace={int(trace)}", " ".join(
            [Path(cmd[0]).name] + cmd[1:]))
        t0 = time.perf_counter()
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=max(self.deadline - time.monotonic(),
                                           0.1))
        except subprocess.TimeoutExpired:
            log(f"driver killed at the run deadline: {' '.join(cmd)}")
            return None, None, time.perf_counter() - t0
        secs = time.perf_counter() - t0
        if r.returncode != 0:
            log(f"driver exit {r.returncode}: {' '.join(cmd)}\n"
                f"{r.stderr.strip()}")
            return None, None, secs
        ops, summary = {}, None
        for line in r.stdout.splitlines():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # a missing op line fails that op
            if rec.get("summary"):
                summary = rec
            else:
                ops[rec["op"]] = rec
        return ops, summary, secs

    def op_names(self, workload):
        apps = self.apps.split(",") if self.apps else APPS
        kind = "replay" if workload == "record" else workload
        return [f"{a}/{c}" for a in apps for c in CONFIGS[kind]]

    def check(self, workload, ops, refs):
        """Count the pass's operations against @p refs ({op: digest});
        an op fails on a missing line, valid: no, a race, or a digest
        other than its reference.  Ops without a reference set it."""
        for name in self.op_names(workload):
            self.attempted += 1
            rec = (ops or {}).get(name)
            bad = None
            if rec is None:
                bad = "no result"
            elif not rec["valid"]:
                bad = "valid: no"
            elif rec["races"] != 0:
                bad = f"{rec['races']} races"
            elif refs.setdefault(name, rec["digest"]) != rec["digest"]:
                bad = f"digest {rec['digest']} != {refs[name]}"
            if bad:
                self.failed += 1
                log(f"FAILED {workload} {name}: {bad}")

    def pinned(self, workload):
        """A copy of the pinned default-seed digests of @p workload."""
        return dict(self.expected.get("ops", {}).get(
            "replay" if workload == "record" else workload, {}))


def median(xs):
    return statistics.median(xs)


def iqr_share(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / median(xs)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(drv, workload, seed, trace, work, refs):
    """Set-up work before the timed phase, repeated SETUP_REPS times:
    for replay, recording the suite into a fresh trace store, whose live
    digests (checked against @p refs, or setting them) replay must then
    reproduce; otherwise a warm-up pass over the six cheapest programs.
    Returns (seconds per repetition, store, traced record summaries)."""
    times, records = [], []
    store = None
    for _ in range(SETUP_REPS):
        if workload == "replay":
            store = fresh(work / "store")
            ops, summary, secs = drv.run("record", seed, trace, store)
            drv.check("record", ops, refs)
            if summary is not None:
                records.append(summary)
        else:
            apps = drv.apps or WARMUP_APPS
            _, _, secs = drv.run(workload, seed, False, apps=apps)
        times.append(secs)
    return times, store, records


def verify_default_seed(drv, workload, work):
    """One untimed pass at the default seed, checked against the pinned
    digests, so the pinned gate applies whatever --seed is."""
    pinned = drv.pinned(workload)
    store = None
    if workload == "replay":
        store = fresh(work / "verify-store")
        ops, _, _ = drv.run("record", DEFAULT_SEED, False, store)
        drv.check("record", ops, pinned)
    ops, _, _ = drv.run(workload, DEFAULT_SEED, False, store)
    drv.check(workload, ops, pinned)


def measure(drv, workload, seed, seconds, trace, store, refs):
    """Timed phase: passes until --seconds have elapsed (at least
    MIN_SAMPLES).  With tracing, untraced and traced passes alternate so
    the overhead ratio compares like with like."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        t_it = time.perf_counter()
        for tr in ((False, True) if trace else (False,)):
            ops, summary, _ = drv.run(workload, seed, tr, store)
            drv.check(workload, ops, refs)
            if summary is not None:
                (traced if tr else plain).append(summary)
        now = time.perf_counter()
        enough = min(len(plain), len(traced) if trace else len(plain))
        if now - t0 + (now - t_it) > seconds and (
                enough >= MIN_SAMPLES or now - t0 > seconds + 30):
            break
        if time.monotonic() > drv.deadline:
            break
    return plain, traced


def end_to_end(plain, setup_times):
    walls = [s["wall_s"] for s in plain]
    return {
        "wall_s": (median(walls), "s"),
        "sim_refs_per_s": (median(s["refs"] / s["wall_s"] for s in plain),
                           "1/s"),
        "cpu_s": (median(s["cpu_s"] for s in plain), "s"),
        "peak_rss_mb": (median(s["maxrss_kb"] / 1024 for s in plain), "MB"),
        "setup_s": (median(setup_times), "s"),
    }


def per_layer(plain, traced, records, drv):
    def med(f):
        return median(f(s) for s in traced)

    def lay(s, k):
        return s["layers"][k]

    def per_ref(secs, n):
        return secs / n * 1e9 if n else 0.0

    def busy(name):
        return med(lambda s: lay(s, name)[0])

    def refs(name):
        return med(lambda s: lay(s, name)[1])

    def ns(name):
        return med(lambda s: per_ref(*lay(s, name)))

    def rt_busy(s):
        return lay(s, "run")[0] - s["layers"]["run_children_s"]

    def decode_self(s):
        return lay(s, "decode")[0] - s["layers"]["decode_children_s"]

    def util(s):
        return sum(s["job_s"]) / (s["wall_s"] * s["workers"])

    rec = [r["layers"] for r in records]
    enc_ns = median(per_ref(r["encode"][0], r["encode"][1])
                    for r in rec) if rec else 0.0
    bits = median(8 * r["trace_bytes"] / r["trace_records"]
                  for r in rec) if rec else 0.0
    m = {
        "rt.refs": (refs("run"), "count"),
        "rt.busy_s": (med(rt_busy), "s"),
        "rt.ns_per_ref": (med(lambda s: per_ref(rt_busy(s),
                                                lay(s, "run")[1])),
                          "ns/ref"),
        "rt.sync_ops": (med(lambda s: s["layers"]["sync_ops"]), "count"),
        "sim.memsys.refs": (refs("memsys"), "count"),
        "sim.memsys.busy_s": (busy("memsys"), "s"),
        "sim.memsys.ns_per_ref": (ns("memsys"), "ns/ref"),
        "sim.memsys.hit_ratio": (med(
            lambda s: s["layers"]["mem_hits"] / s["layers"]["mem_refs"]
            if s["layers"]["mem_refs"] else 0.0), "ratio"),
        "sim.replay.refs": (refs("producer"), "count"),
        "sim.replay.producer_s": (busy("producer"), "s"),
        "sim.replay.drain_wait_s": (busy("drain"), "s"),
        "sim.sweep.refs": (refs("sweep"), "count"),
        "sim.sweep.busy_s": (busy("sweep"), "s"),
        "sim.sweep.ns_per_ref": (ns("sweep"), "ns/ref"),
        "sim.reusedist.refs": (refs("rd"), "count"),
        "sim.reusedist.busy_s": (busy("rd"), "s"),
        "sim.reusedist.ns_per_ref": (ns("rd"), "ns/ref"),
        "sim.reusedist.model_eval_s": (busy("rd_eval"), "s"),
        "sim.reusedist.model_max_abs_err": (
            med(lambda s: s["layers"]["model_max_abs_err"]), "ratio"),
        "sim.racecheck.refs": (refs("race"), "count"),
        "sim.racecheck.busy_s": (busy("race"), "s"),
        "sim.racecheck.ns_per_ref": (ns("race"), "ns/ref"),
        "sim.racecheck.races": (max(s["layers"]["races"] for s in traced),
                                "count"),
        "sim.tracestore.encode_ns_per_ref": (enc_ns, "ns/ref"),
        "sim.tracestore.decode_ns_per_ref": (med(
            lambda s: per_ref(decode_self(s), lay(s, "decode")[1])),
            "ns/ref"),
        "sim.tracestore.bits_per_ref": (bits, "bits/ref"),
        "harness.runner.jobs": (len(traced[0]["job_s"]), "count"),
        "harness.runner.critical_path_s": (med(lambda s: max(s["job_s"])),
                                           "s"),
        "harness.runner.utilization": (med(util), "ratio"),
        "harness.runner.failed_share": (drv.failed / max(drv.attempted, 1),
                                        "ratio"),
        "bench.samples": (len(traced), "count"),
        "bench.cpu_per_wall": (median(s["cpu_s"] / s["wall_s"]
                                      for s in traced), "ratio"),
        "bench.trace_overhead": (median(s["wall_s"] for s in traced) /
                                 median(s["wall_s"] for s in plain),
                                 "ratio"),
    }
    return m


def pin(drv, work):
    """Record the default-seed digests of every workload."""
    ops = {}
    for w in WORKLOADS:
        store = fresh(work / "store") if w == "replay" else None
        if store is not None:
            drv.run("record", DEFAULT_SEED, False, store)
        got, _, _ = drv.run(w, DEFAULT_SEED, False, store)
        if got is None or len(got) != len(drv.op_names(w)):
            raise BenchError(f"pinning {w}: driver failed")
        bad = [k for k, v in got.items() if not v["valid"] or v["races"]]
        if bad:
            raise BenchError(f"pinning {w}: invalid operations {bad}")
        ops[w] = {k: v["digest"] for k, v in sorted(got.items())}
    return {"seed": DEFAULT_SEED, "scale": drv.scale,
            "apps": drv.apps or "all", "ops": ops}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-pin the default-seed digests and exit")
    # Self-test knobs (perfbench/selftest.py): a smaller problem, a
    # subset of the programs, and another pinned-digest file.
    ap.add_argument("--scale", type=float, default=SCALE,
                    help=argparse.SUPPRESS)
    ap.add_argument("--apps", default="", help=argparse.SUPPRESS)
    ap.add_argument("--expect", type=Path, default=EXPECTED,
                    help=argparse.SUPPRESS)
    a = ap.parse_args()
    if not a.pin and a.workload is None:
        ap.error("--workload is required")

    exe = build()
    work = build_dir() / "runs" / str(os.getpid())
    try:
        expected = {}
        if a.expect.is_file() and not a.pin:
            expected = json.loads(a.expect.read_text())
            if expected.get("scale") != a.scale or \
                    expected.get("apps") != (a.apps or "all"):
                expected = {}
        drv = Driver(exe, a.scale, a.apps, expected)
        if a.pin:
            a.expect.write_text(json.dumps(pin(drv, work), indent=1) +
                                "\n")
            log(f"pinned digests written to {a.expect}")
            return 0
        result = run_workload(drv, a, exe, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_workload(drv, a, exe, work):
    w = a.workload
    if not drv.pinned(w):
        raise BenchError(f"no pinned digests for {w} at this scale; "
                         "run --pin")
    log(json.dumps({"provenance": provenance(exe, a.seed, a.scale)}))
    refs = drv.pinned(w) if a.seed == DEFAULT_SEED else {}
    setup_times, store, records = setup(drv, w, a.seed, a.trace, work,
                                        refs)
    plain, traced = measure(drv, w, a.seed, a.seconds, a.trace, store,
                            refs)
    if a.seed != DEFAULT_SEED:
        verify_default_seed(drv, w, work)
    log(json.dumps({"commands": drv.commands}))
    if not plain or (a.trace and not traced):
        raise BenchError("no pass completed")
    if a.trace:
        metrics = per_layer(plain, traced, records, drv)
    else:
        metrics = end_to_end(plain, setup_times)
    walls = [s["wall_s"] for s in plain]
    log(f"{w}: {len(plain)} untraced passes"
        + (f", {len(traced)} traced" if a.trace else "")
        + f"; wall median {median(walls):.3f} s, IQR/median "
        f"{iqr_share(walls):.3f}; cpu/wall "
        f"{median(s['cpu_s'] / s['wall_s'] for s in plain):.2f}; "
        f"setup reps {', '.join(f'{t:.3f}' for t in setup_times)} s; "
        f"{drv.failed}/{drv.attempted} operations failed; pass walls "
        f"in order: {' '.join(f'{x:.3f}' for x in walls)}")
    for k, (v, u) in metrics.items():
        log(f"  {k:36s} {v:16.6g} {u}")
    return {"correct": drv.failed == 0, "attempted": drv.attempted,
            "failed": drv.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
