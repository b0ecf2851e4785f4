#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny scale on two programs.

  python3 perfbench/selftest.py

Checks that
  * every metric BENCHMARK.json names is emitted, with its unit, for
    every workload, untraced and traced, at the default seed and at
    another one;
  * a deliberately wrong pinned digest registers as a failed operation
    (correct: false, harness.runner.failed_share > 0), at the default
    seed and through the default-seed verification pass of another
    seed, so the correctness gate is not vacuous;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    command exits non-zero without printing a result.
Exits 0 when all checks pass.  Writes only under .bench_build/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.05"
APPS = "FFT,Water-Sp"
OTHER_SEED = 99

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(args, cwd=ROOT):
    """Run the benchmark command; (exit code, parsed last line or None)."""
    r = subprocess.run(SPEC["command"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if r.returncode != 0 and cwd == ROOT:
        sys.stderr.write(r.stderr[-2000:])
    return r.returncode, last


def run(workload, seed, trace, expect):
    return bench(["--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace),
                  "--scale", SCALE, "--apps", APPS,
                  "--expect", str(expect)])


def main():
    tmp = ROOT / ".bench_build" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    expect = tmp / "expected.json"
    code, _ = bench(["--pin", "--scale", SCALE, "--apps", APPS,
                     "--expect", str(expect)])
    check(code == 0 and expect.is_file(), "pin digests at the tiny scale")
    if failures:
        return 1
    names = [w["name"] for w in SPEC["workloads"]]

    for w in names:
        for trace, seed in ((0, 1234), (1, 1234), (0, OTHER_SEED),
                            (1, OTHER_SEED)):
            tag = f"{w} trace={trace} seed={seed}"
            code, res = run(w, seed, trace, expect)
            check(code == 0 and res is not None, f"{tag}: exit 0 + result")
            if res is None:
                continue
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], f"{tag}: result keys")
            check(res["correct"] is True and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{tag}: correct, none failed")
            spec = SPEC["per_layer" if trace else "end_to_end"]
            got = res["metrics"]
            check(sorted(got) == sorted(m["name"] for m in spec),
                  f"{tag}: every named metric emitted")
            check(all(got.get(m["name"], {}).get("unit") == m["unit"] and
                      isinstance(got[m["name"]]["value"], (int, float))
                      for m in spec), f"{tag}: units and numeric values")
            if not trace:
                check(all(v["value"] > 0 for v in got.values()),
                      f"{tag}: end-to-end metrics are non-zero")
            else:
                check(got["sim.racecheck.races"]["value"] == 0,
                      f"{tag}: race-free")

    # A wrong pinned digest must count as a failed operation.
    pinned = json.loads(expect.read_text())
    for w in names:
        bad = json.loads(json.dumps(pinned))
        op = sorted(bad["ops"][w])[0]
        d = bad["ops"][w][op]
        bad["ops"][w][op] = ("0" if d[0] != "0" else "1") + d[1:]
        bad_file = tmp / f"bad-{w}.json"
        bad_file.write_text(json.dumps(bad))
        for trace, seed in ((0, 1234), (1, 1234), (0, OTHER_SEED)):
            tag = f"{w} trace={trace} seed={seed} with a wrong digest"
            code, res = run(w, seed, trace, bad_file)
            check(code == 0 and res is not None and
                  res["correct"] is False and res["failed"] >= 1,
                  f"{tag}: counted as failed")
            if trace and res is not None:
                check(res["metrics"]["harness.runner.failed_share"]
                      ["value"] > 0, f"{tag}: failed_share > 0")

    # Without the simulator sources the command must fail cleanly.
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
    code, res = bench(["--workload", names[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    check(code != 0 and res is None,
          "bare directory: non-zero exit, no result")

    shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
