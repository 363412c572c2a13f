#!/usr/bin/env python3
"""Benchmark of record for morselDB: builds and runs perfbench.

    python3 perfbench/run.py --workload tpch|ssb|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The engine and the benchmark are built
from source into $CARGO_TARGET_DIR (default .bench_build) on first use.
--seconds defaults to BENCHMARK.json's run_seconds. The last line of
standard output is the run's result as one JSON object; its metric names
and units are checked against BENCHMARK.json. Traced runs write their
spans under <build dir>/trace/. --selftest runs the benchmark's unit
tests, then a short serve run in both modes through the same check. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures and builds (a no-op once built); output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", bdir, "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run(bdir, workload, seed, seconds, trace):
    """Runs one workload, echoes its output and checks that the result
    prints exactly the metrics BENCHMARK.json declares for the mode.
    Returns the exit code."""
    binary = os.path.join(bdir, "perfbench")
    trace_dir = os.path.join(bdir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out-dir", trace_dir, "--commit", commit()],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1

    declared = spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("printed metrics differ from BENCHMARK.json: %s"
            % sorted(set(want.items()) ^ set(got.items())))
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


def selftest(bdir):
    test = os.path.join(bdir, "perfbench_test")
    if not os.path.exists(test):
        log("perfbench_test was not built (GoogleTest missing?)")
        return 1
    rc = subprocess.run([test]).returncode
    for trace in (0, 1):
        rc |= run(bdir, "serve", 1, 2, trace)
    return rc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["tpch", "ssb", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.selftest:
        return selftest(bdir)
    return run(bdir, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
