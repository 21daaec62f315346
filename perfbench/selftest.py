#!/usr/bin/env python3
"""Short self-test of the benchmark (a few passes per workload).

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  - an untraced run prints every end_to_end metric, and a traced run
    every per_layer metric, each with its unit and nothing else;
  - every verdict matched its reference (failed == 0, correct);
  - the exact-count check holds: two traced runs with the same seed
    print identical count metrics, and every run with that seed
    reports the same exact-count fingerprint;
and that in a directory holding only BENCHMARK.json and the benchmark's
files the benchmark fails fast without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

SHORT = ["--seconds", "2", "--processes", "2", "--min-passes", "3"]
SEED = 7


def run(workload, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--trace", str(trace)] + SHORT
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=900)
    return p.returncode, p.stdout.decode(), p.stderr.decode()


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def result(workload, trace, declared):
    rc, out, err = run(workload, trace)
    check(rc == 0, "%s trace=%d exited %d:\n%s" % (workload, trace, rc,
                                                   err[-3000:]))
    res = json.loads(out.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (workload, sorted(res)))
    check(res["correct"] is True and res["failed"] == 0 and
          res["attempted"] >= 1,
          "%s trace=%d: correct=%s failed=%s attempted=%s" % (
              workload, trace, res["correct"], res["failed"],
              res["attempted"]))
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, "%s trace=%d: metrics/units differ: missing %s, "
          "extra or wrong %s" % (
              workload, trace, sorted(set(want.items()) - set(got.items())),
              sorted(set(got.items()) - set(want.items()))))
    fp = re.search(r"fingerprint ([0-9a-f]+)", err)
    check(fp is not None, "%s: no exact-count fingerprint" % workload)
    check("DIFFER" not in err and "FAILED" not in err,
          "%s: exact-count check failed within the run" % workload)
    return res, fp.group(1)


def lone_directory_fails():
    lone = os.path.join(".bench_build", "selftest-lone")
    shutil.rmtree(lone, ignore_errors=True)
    os.makedirs(lone)
    shutil.copy("BENCHMARK.json", lone)
    for path in json.load(open("BENCHMARK.json"))["paths"]:
        shutil.copytree(path, os.path.join(lone, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, _ = run("oracle_corpus", 0, cwd=lone)
    shutil.rmtree(lone, ignore_errors=True)
    check(rc != 0 and not out.strip(),
          "benchmark without the repository exited %d, printed %r" % (
              rc, out[-200:]))


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        name = w["name"]
        _, fp0 = result(name, 0, bench["end_to_end"])
        a, fp1 = result(name, 1, bench["per_layer"])
        b, fp2 = result(name, 1, bench["per_layer"])
        check(fp0 == fp1 == fp2,
              "%s: exact-count fingerprints differ across runs with one "
              "seed: %s %s %s" % (name, fp0, fp1, fp2))
        for m in bench["per_layer"]:
            if m["unit"] == "count":
                va = a["metrics"][m["name"]]["value"]
                vb = b["metrics"][m["name"]]["value"]
                check(va == vb, "%s: count %s differs between runs: %s vs %s"
                      % (name, m["name"], va, vb))
        print("ok %s" % name)
    lone_directory_fails()
    print("ok lone-directory failure")
    print("selftest passed")


if __name__ == "__main__":
    main()
