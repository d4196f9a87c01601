#!/usr/bin/env python3
"""A/B the benchmark between two checkouts: alternating parent/change runs.

Usage:
    perf_ab.py --parent DIR --change DIR [--workload W ...] [--seed S ...]
               [--pairs N] [--seconds S] [--target-root DIR]

For every workload and seed, runs N pairs of `python3 perfbench/run.py
--workload W --seed S` in the two checkouts, alternating which side runs
first (the parent in even pairs, the change in odd ones). Each side builds
into its own CARGO_TARGET_DIR (<target-root>/parent, <target-root>/change;
default target root: .perf_ab under the change checkout), so the two builds
never mix. Workloads default to every workload of the change's
BENCHMARK.json, seeds to 1.

Every run of both sides must print the same `digest` line: a change that
claims to keep behaviour fails here when it does not. Then, for each
end-to-end metric of BENCHMARK.json, one line gives the two medians, the
two interquartile ranges, the ratio change/parent of the medians and the
pairs the change won (ties count for neither side). The last column says
`gain` when the change won at least nine tenths of the pairs and its median
beats the parent's by more than the parent's IQR, `worse` when its median
is worse than the parent's by more than the metric's bound, and
`unresolved` when either side's IQR is wider than that bound and the two
sides' runs overlap: such a spread cannot show the metric unchanged. A
closing line per workload and seed lists the worse and the unresolved
metrics.

Exit codes: 0 every run succeeded and the digests matched, 1 a run failed,
reported an incorrect output or printed another digest, 2 usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, target_dir):
    """Runs perfbench/run.py in `checkout`; returns (digest, result dict).
    Raises RuntimeError when the run fails."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: perfbench exited %d" % (checkout,
                                                        proc.returncode))
    digest = None
    for line in lines:
        if line.startswith("digest "):
            digest = line.split()[1]
    return digest, json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3


def summarize(metric, parent, change):
    """One metric's comparison over paired runs (parent[i] with change[i])."""
    lower = metric.get("better") == "lower"
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    gain = cmed - pmed if not lower else pmed - cmed
    bound = metric.get("bound", float("inf")) * abs(pmed)
    overlap = max(min(parent), min(change)) <= min(max(parent), max(change))
    verdict = ""
    if wins * 10 >= 9 * len(parent) and gain > p3 - p1:
        verdict = "gain"
    elif -gain > bound:
        verdict = "worse"
    elif max(p3 - p1, c3 - c1) > bound and overlap:
        verdict = "unresolved"
    return {"name": metric["name"], "unit": metric.get("unit", ""),
            "parent_median": pmed, "parent_iqr": p3 - p1,
            "change_median": cmed, "change_iqr": c3 - c1,
            "ratio": cmed / pmed if pmed else float("nan"),
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def compare(parent, change, workloads, seeds, pairs, metrics, runner,
            out=sys.stdout):
    """Runs the pairs through `runner(side, checkout, workload, seed)` and
    prints one table per (workload, seed). Returns the exit code."""
    status = 0
    for workload in workloads:
        for seed in seeds:
            results = {"parent": [], "change": []}
            digests = set()
            try:
                for i in range(pairs):
                    order = ("parent", "change") if i % 2 == 0 else (
                        "change", "parent")
                    for side in order:
                        checkout = parent if side == "parent" else change
                        digest, result = runner(side, checkout, workload,
                                                seed)
                        if not result.get("correct", False):
                            raise RuntimeError(
                                "%s run %d: output not correct" % (side, i))
                        digests.add(digest)
                        results[side].append(result["metrics"])
            except RuntimeError as e:
                print("perf_ab: %s seed %s: %s" % (workload, seed, e),
                      file=out)
                status = 1
                continue
            print("== %s seed %s: %d pairs, digest %s" %
                  (workload, seed, pairs, " ".join(sorted(map(str, digests)))),
                  file=out)
            if len(digests) != 1:
                print("perf_ab: %s seed %s: digests differ" % (workload, seed),
                      file=out)
                status = 1
            print("%-12s %14s %12s %14s %12s %8s %6s" %
                  ("metric", "parent_med", "parent_iqr", "change_med",
                   "change_iqr", "ratio", "wins"), file=out)
            flagged = {"worse": [], "unresolved": []}
            for metric in metrics:
                name = metric["name"]
                s = summarize(metric,
                              [m[name]["value"] for m in results["parent"]],
                              [m[name]["value"] for m in results["change"]])
                print("%-12s %14.6g %12.6g %14.6g %12.6g %8.4f %3d/%-2d %s" %
                      (name, s["parent_median"], s["parent_iqr"],
                       s["change_median"], s["change_iqr"], s["ratio"],
                       s["wins"], s["pairs"], s["verdict"]), file=out)
                if s["verdict"] in flagged:
                    flagged[s["verdict"]].append(name)
            print("-- %s seed %s: worse: %s; unresolved: %s" %
                  (workload, seed, " ".join(flagged["worse"]) or "none",
                   " ".join(flagged["unresolved"]) or "none"), file=out)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--target-root")
    args = ap.parse_args(argv)
    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    try:
        with open(os.path.join(change, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        print("perf_ab: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("perf_ab: --pairs must be at least 1", file=sys.stderr)
        return 2
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [1]
    target_root = os.path.abspath(args.target_root or
                                  os.path.join(change, ".perf_ab"))

    def runner(side, checkout, workload, seed):
        return run_once(checkout, workload, seed, args.seconds,
                        os.path.join(target_root, side))

    return compare(parent, change, workloads, seeds, args.pairs,
                   bench["end_to_end"], runner)


if __name__ == "__main__":
    sys.exit(main())
