#!/usr/bin/env python3
"""A/B performance gate: this commit against its parent, same runner.

Run from the root of a checkout that has the parent commit (in CI,
actions/checkout with fetch-depth 2):

    python3 .github/scripts/ab_gate.py

The parent (HEAD^) is checked out into the git worktree .ab_parent/,
which must not exist yet (after a local run, `git worktree remove
--force .ab_parent`).  The parent's BENCHMARK.json is the baseline: its
command, workloads, run_seconds, metric directions and bounds decide,
so a change cannot loosen its own bound, a workload or metric only the
change declares is not gated yet, and one the change drops fails.
For every workload the parent declares, the benchmark command runs
untraced (--trace 0) for run_seconds in both trees, as PAIRS pairs
whose order alternates (parent first, then change first, ...); the two
runs of a pair share a seed.  The gate fails (exit 1) when, on any
workload, any run is correct:false or does not finish, the change's
failed/attempted share is higher than the parent's, or the median of an
end_to_end metric on the change is worse than the parent's median by
more than that metric's relative bound.  The decision is compare();
its doctests run with

    python3 -m doctest .github/scripts/ab_gate.py
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
PARENT_DIR = ".ab_parent"


def worse_by(parent, change, better):
    """How much worse @change is than @parent, relative to @parent
    (negative when it is better).

    >>> worse_by(100.0, 70.0, "higher")
    0.3
    >>> worse_by(100.0, 130.0, "lower")
    0.3
    >>> worse_by(100.0, 130.0, "higher")
    -0.3
    >>> worse_by(0.0, 1.0, "lower")
    inf
    >>> worse_by(100.0, 130.0, "more")
    Traceback (most recent call last):
    ValueError: better must be 'higher' or 'lower', not 'more'
    """
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower', not %r"
                         % better)
    delta = parent - change if better == "higher" else change - parent
    if parent == 0:
        return float("inf") if delta > 0 else 0.0
    return round(delta / abs(parent), 12)


def medians(metrics, runs):
    """Each metric's median across @runs.

    >>> medians([{"name": "x"}], [{"metrics": {"x": {"value": v}}}
    ...                           for v in (3, 1, 2, 10)])
    {'x': 2.5}
    """
    return {m["name"]: statistics.median(r["metrics"][m["name"]]["value"]
                                         for r in runs)
            for m in metrics}


def failed_share(runs):
    """Failed over attempted operations across @runs.

    >>> failed_share([{"attempted": 90, "failed": 1},
    ...               {"attempted": 10, "failed": 1}])
    0.02
    >>> failed_share([{"attempted": 0, "failed": 0}])
    0.0
    """
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def unusable(metrics, side, runs):
    """Why @side's @runs cannot be compared: a run that did not finish,
    is correct:false, or lacks one of @metrics.

    >>> unusable([{"name": "x"}], "change",
    ...          [None, {"correct": True, "metrics": {}}])
    ['change run 1: no result', 'change run 2: no x']
    """
    findings = []
    for i, r in enumerate(runs, 1):
        if r is None:
            findings.append("%s run %d: no result" % (side, i))
        elif not r["correct"]:
            findings.append("%s run %d: correct is false" % (side, i))
        else:
            findings += ["%s run %d: no %s" % (side, i, m["name"])
                         for m in metrics if m["name"] not in r["metrics"]]
    return findings


def compare(metrics, parent_runs, change_runs):
    """The gate's findings for one workload; an empty list passes.

    @metrics is the parent's end_to_end list; the runs are the
    result objects perfbench prints (None for a run that did not
    finish).  Each metric compares medians across runs.

    >>> M = [{"name": "verdicts_per_s", "better": "higher", "bound": 0.2},
    ...      {"name": "latency_p50_us", "better": "lower", "bound": 0.2}]
    >>> def run(vps, p50, failed=0, correct=True):
    ...     return {"correct": correct, "attempted": 100,
    ...             "failed": failed,
    ...             "metrics": {"verdicts_per_s": {"value": vps},
    ...                         "latency_p50_us": {"value": p50}}}
    >>> parent = [run(1000, 50), run(1010, 49), run(990, 51)]

    Noise inside the bounds passes, and so does an improvement:

    >>> compare(M, parent, [run(900, 55), run(1100, 45), run(950, 58)])
    []
    >>> compare(M, parent, [run(2000, 25)] * 3)
    []

    A 30 % slower change fails on throughput, judged by "better":

    >>> compare(M, parent, [run(700, 50)] * 3)
    ['verdicts_per_s: median 700 vs parent 1000, 30.0% worse > bound 20%']
    >>> compare(M, parent, [run(1000, 65)] * 3)
    ['latency_p50_us: median 65 vs parent 50, 30.0% worse > bound 20%']

    The median, not the mean or the best run, decides:

    >>> compare(M, parent, [run(1200, 50), run(700, 50), run(750, 50)])
    ['verdicts_per_s: median 750 vs parent 1000, 25.0% worse > bound 20%']
    >>> compare(M, parent, [run(100, 50), run(1000, 50), run(1000, 50)])
    []

    Correctness and the failed share gate on their own:

    >>> compare(M, parent, [run(1000, 50, correct=False)] * 3)
    ['change run 1: correct is false', \
'change run 2: correct is false', 'change run 3: correct is false']
    >>> compare(M, parent, [run(1000, 50, failed=1)] * 3)
    ['failed share 1.00% vs parent 0.00%']
    >>> compare(M, parent, [run(1000, 50), None, run(1000, 50)])
    ['change run 2: no result']
    >>> compare(M, [run(1000, 50, correct=False)], [run(1000, 50)])
    ['parent run 1: correct is false']

    @metrics is the parent's list: a metric only the change reports is
    not judged, and one the change stops reporting fails.

    >>> extra = run(1000, 50)
    >>> extra["metrics"]["new_metric"] = {"value": 1e9}
    >>> compare(M, parent, [extra] * 3)
    []
    >>> dropped = run(1000, 50)
    >>> del dropped["metrics"]["latency_p50_us"]
    >>> compare(M, parent, [run(1000, 50), dropped, run(1000, 50)])
    ['change run 2: no latency_p50_us']
    """
    findings = (unusable(metrics, "parent", parent_runs) +
                unusable(metrics, "change", change_runs))
    if findings:
        return findings
    share = (failed_share(parent_runs), failed_share(change_runs))
    if share[1] > share[0]:
        findings.append("failed share %.2f%% vs parent %.2f%%"
                        % (100 * share[1], 100 * share[0]))
    parent, change = medians(metrics, parent_runs), medians(metrics,
                                                             change_runs)
    for m in metrics:
        p, c = parent[m["name"]], change[m["name"]]
        worse = worse_by(p, c, m["better"])
        if worse > m["bound"]:
            findings.append("%s: median %.6g vs parent %.6g, %.1f%% worse "
                            "> bound %g%%" % (m["name"], c, p, 100 * worse,
                                              100 * m["bound"]))
    return findings


def git(*args, cwd="."):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          stdout=subprocess.PIPE).stdout.decode().strip()


def checkout_parent():
    """HEAD^ in a new worktree PARENT_DIR (git refuses an existing,
    non-empty directory)."""
    sha = git("rev-parse", "HEAD^")
    git("worktree", "add", "--quiet", "--detach", PARENT_DIR, sha)
    return sha


def run_once(command, workload, seed, seconds, cwd):
    """One benchmark run in @cwd; its result object, or None."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    lines = p.stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr.decode()[-3000:])
        print("  %s in %s exited %d without a result"
              % (workload, cwd, p.returncode))
        return None


def main():
    sys.stdout.reconfigure(line_buffering=True)
    sha = checkout_parent()
    with open(os.path.join(PARENT_DIR, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    print("parent %s in %s; %d pairs per workload, %d s per run"
          % (sha[:12], PARENT_DIR, PAIRS, bench["run_seconds"]))
    failed = False
    for w in bench["workloads"]:
        name = w["name"]
        runs = {PARENT_DIR: [], ".": []}
        for pair in range(PAIRS):
            order = [PARENT_DIR, "."] if pair % 2 == 0 else [".", PARENT_DIR]
            for tree in order:
                runs[tree].append(run_once(bench["command"], name, pair + 1,
                                           bench["run_seconds"], tree))
        print("%s:" % name)
        findings = compare(metrics, runs[PARENT_DIR], runs["."])
        if not (unusable(metrics, "parent", runs[PARENT_DIR]) or
                unusable(metrics, "change", runs["."])):
            parent = medians(metrics, runs[PARENT_DIR])
            change = medians(metrics, runs["."])
            for m in metrics:
                p, c = parent[m["name"]], change[m["name"]]
                print("  %-16s parent %12.6g  change %12.6g  %+6.1f%% "
                      "better" % (m["name"], p, c,
                                  -100 * worse_by(p, c, m["better"])))
        for f in findings:
            print("  FAIL %s" % f)
        failed = failed or bool(findings)
    print("gate: %s" % ("FAIL" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
