#!/usr/bin/env python3
"""Build and run one workload of the cherisem layered benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle_corpus|eval_kernels|serve_warm \
        --seed N --seconds S --trace 0|1

The first run builds perfbench/ (the cherisem library sources plus the
benchmark program, optimised) into .bench_build/perfbench; later runs
only check that the build is current.  The last stdout line is the
result JSON.

--trace 0 splits the measurement over PROCESSES benchmark processes run
one after another, each with its own address-space layout, and merges
their fastest observations (see merge()).  Layout alone moves one
process's speed by up to a third on the reference host
(perfbench/README.md), so a single process cannot give a steady
figure.  --trace 1 runs one process and prints its
per-layer metrics; its spans go to
.bench_build/perfbench/spans-<workload>-<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("oracle_corpus", "eval_kernels", "serve_warm")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
PROCESSES = 8


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build; any failure ends the run."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no cherisem sources (src/CMakeLists.txt) in " + os.getcwd())
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, left)).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step %s exited %d (log: %s)" % (cmd[:2], rc,
                                                           log_path))
    return os.path.join(BUILD_DIR, "perfbench")


def quantile(values, q):
    """Linear interpolation between order statistics (as src/harness.cpp)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def merge(raws):
    """The end-to-end result of one run from its processes' raw results.

    Each item's latency is its fastest over every pass of every
    process; the latency percentiles are taken across items.  The loop
    is closed with a fixed number of requests in flight, so by Little's
    law throughput is that number over the mean of those latencies.
    """
    n = len(raws[0]["item_fastest_ns"])
    in_flight = raws[0]["in_flight"]
    fastest = [min(r["item_fastest_ns"][i] for r in raws) for i in range(n)]
    p50_ns, p95_ns = quantile(fastest, 0.50), quantile(fastest, 0.95)
    fingerprints = {r["fingerprint"] for r in raws}
    if len(fingerprints) != 1:
        print("perfbench: exact-count check FAILED: processes of one seed "
              "disagree: %s" % sorted(fingerprints), file=sys.stderr)
    passes = sum(r["passes"] for r in raws)
    # Each process sets up once, from main to ready; like the other
    # timings, the run reports the fastest of its processes.
    setups = [r["setup_s"] for r in raws]
    print("perfbench: %d processes, %d passes of %d items, %d in flight; "
          "p50/p95 across %d items (%d beyond p95); setup_s the fastest of "
          "%d processes' set-ups" % (
              len(raws), passes, n, in_flight, n,
              n - int(0.95 * n), len(setups)),
          file=sys.stderr)
    metric = lambda v, unit: {"value": v, "unit": unit}
    return {
        "correct": all(r["correct"] for r in raws) and len(fingerprints) == 1,
        "attempted": sum(r["attempted"] for r in raws),
        "failed": sum(r["failed"] for r in raws),
        "metrics": {
            "verdicts_per_s": metric(in_flight * n / (sum(fastest) / 1e9),
                                     "1/s"),
            "latency_p50_us": metric(p50_ns / 1e3, "us"),
            "latency_p95_us": metric(p95_ns / 1e3, "us"),
            "peak_rss_mb": metric(
                statistics.median(r["peak_rss_mb"] for r in raws), "MB"),
            "setup_s": metric(min(setups), "s"),
        },
    }


def run_bench(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (cmd[0], timeout), 3)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("%s exited %d" % (cmd[0], proc.returncode), proc.returncode or 2)
    return proc.returncode, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test knobs (perfbench/selftest.py): fewer passes, processes.
    ap.add_argument("--min-passes", type=int,
                    help="passes per process, at least (default: the "
                    "benchmark program's)")
    ap.add_argument("--processes", type=int, default=PROCESSES)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds 1..120")
    if args.processes < 1:
        fail("--processes must be >= 1")

    program = build()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--root", "."]
    if args.min_passes is not None:
        cmd += ["--min-passes", str(args.min_passes)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        cmd += ["--seconds", str(args.seconds), "--trace-out", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
        rc, line = run_bench(cmd, RUN_TIMEOUT_S)
        print(line)
        return rc
    share = "%.3f" % (args.seconds / args.processes)
    raws = []
    for _ in range(args.processes):
        left = deadline - time.monotonic()
        _, line = run_bench(cmd + ["--seconds", share], max(1, left))
        raws.append(json.loads(line))
    result = merge(raws)
    for name, m in result["metrics"].items():
        print("  %-16s %14.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
