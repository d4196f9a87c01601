#!/usr/bin/env python3
"""Steadiness and determinism checks for the benchmark.

Spread over seeds (the acceptance test for the end-to-end metrics):

    python3 perfbench/steady.py spread --workload fib_churn --seeds 1-10 \
        [--out perfbench/results/steady_fib_churn_1.json]

runs the workload once per seed through run.py, at BENCHMARK.json's
run_seconds, and prints for every end-to-end metric and for the raw
(uncalibrated) host times beside them the median, the quartiles and the
spread (Q3 - Q1) / median, with the quartiles taken as
statistics.quantiles(values, n=4) gives them. It also prints how much
machine speed each metric still carries: the correlation of the metric
with run.calibration_factor (the kernel's speed) over the runs, and the
slope of ln(metric) against ln(calibration factor), which is 0 when
calibration removes machine speed entirely and about +-1 for raw time.

Agreement of two sets of runs of the same code:

    python3 perfbench/steady.py compare A.json B.json

prints each metric's medians in two spread outputs, how much worse the
second is than the first, and the metric's bound.

Determinism (the digest of op counts and virtual-time metrics must repeat):

    python3 perfbench/steady.py digest --workload te_fattree --seed 7

Calibration self-test (the reference kernel must not depend on the
program's cache footprint):

    python3 perfbench/steady.py calib
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Raw host-time figures shown beside their calibrated metric.
RAW_OF = {"ops_per_s": "run.raw_ops_per_s", "setup_s": "run.raw_setup_s"}
CALIBRATION = "run.calibration_factor"
DIGEST_RUNS = 2


def end_to_end():
    """BENCHMARK.json's end-to-end metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       proc.returncode))
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail_json "):]) for l in lines
                  if l.startswith("detail_json "))
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall, "digest": detail["digest"],
            "metrics": {k: v["value"] for k, v in detail["metrics"].items()},
            "details": {k: v["value"] for k, v in detail["details"].items()},
            "result": result}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values, calibration):
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = {"median": med, "q1": q1, "q3": q3,
         "iqr_over_median": (q3 - q1) / med if med else float("nan")}
    if len(set(values)) > 1 and len(set(calibration)) > 1:
        s["corr_calibration"] = statistics.correlation(calibration, values)
        s["slope_calibration"] = statistics.linear_regression(
            [math.log(c) for c in calibration],
            [math.log(v) for v in values]).slope
    return s


def cmd_spread(args):
    runs = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed)
        runs.append(r)
        print("seed %-6d wall %5.1fs  cal %.3f  %s" % (
            seed, r["wall_s"], r["details"][CALIBRATION], "  ".join(
                "%s=%.6g" % (k, v) for k, v in sorted(r["metrics"].items()))),
            flush=True)
    cal = [r["details"][CALIBRATION] for r in runs]
    summary = {}
    for name in sorted(runs[0]["metrics"]):
        s = spread([r["metrics"][name] for r in runs], cal)
        raw = RAW_OF.get(name)
        if raw:
            s["raw"] = spread([r["details"][raw] for r in runs], cal)
        summary[name] = s
    for name in (CALIBRATION, "run.cpu_wall_ratio"):
        summary[name] = spread([r["details"][name] for r in runs], cal)
    bounds = end_to_end()

    def pct(s, key):
        return "%.1f%%" % (100 * s[key]) if key in s else "-"

    def num(s, key):
        return "%+.2f" % s[key] if key in s else "-"

    print("\n%-20s %11s %8s %7s %9s %6s %6s %9s %9s" % (
        "metric", "median", "iqr/med", "bound", "raw", "r(cal)", "slope",
        "raw r", "raw slope"))
    for name, s in summary.items():
        bound = bounds.get(name, {}).get("bound")
        raw = s.get("raw", {})
        flag = " > bound/3" if bound and s["iqr_over_median"] > bound / 3 else ""
        print("%-20s %11.6g %8s %7s %9s %6s %6s %9s %9s%s" % (
            name, s["median"], pct(s, "iqr_over_median"),
            "%.2f" % bound if bound else "-", pct(raw, "iqr_over_median"),
            num(s, "corr_calibration"), num(s, "slope_calibration"),
            num(raw, "corr_calibration"), num(raw, "slope_calibration"), flag))
    print("max run wall %.1fs" % max(r["wall_s"] for r in runs))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": run.run_seconds(),
                       "seeds": parse_seeds(args.seeds), "summary": summary,
                       "runs": runs}, f, indent=1, sort_keys=True)
            f.write("\n")


def cmd_compare(args):
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    if a["workload"] != b["workload"]:
        raise SystemExit("the two sets ran different workloads")
    print("%s: %s vs %s" % (a["workload"], args.first, args.second))
    print("%-14s %12s %12s %10s %7s" % ("metric", "median 1", "median 2",
                                         "2 worse by", "bound"))
    failed = []
    for name, m in end_to_end().items():
        m1 = a["summary"][name]["median"]
        m2 = b["summary"][name]["median"]
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        if worse > m["bound"]:
            failed.append(name)
        print("%-14s %12.6g %12.6g %9.1f%% %7.2f" % (name, m1, m2,
                                                     100 * worse, m["bound"]))
    if failed:
        raise SystemExit("second set worse than the first beyond the bound: "
                         + ", ".join(failed))
    print("the two sets agree within every bound")


def cmd_digest(args):
    digests = []
    for i in range(DIGEST_RUNS):
        r = run_once(args.workload, args.seed)
        digests.append(r["digest"])
        print("run %d digest %s" % (i, r["digest"]), flush=True)
    if len(set(digests)) != 1:
        raise SystemExit("digest differs across runs of seed %d" % args.seed)
    print("digest repeats exactly")


def cmd_calib(args):
    binary = run.build()
    out = subprocess.run([binary, "--calib-selftest"], check=True,
                         capture_output=True, text=True).stdout
    sys.stdout.write(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spread)
    cp = sub.add_parser("compare")
    cp.add_argument("first")
    cp.add_argument("second")
    cp.set_defaults(func=cmd_compare)
    dg = sub.add_parser("digest")
    dg.add_argument("--workload", required=True)
    dg.add_argument("--seed", type=int, default=1)
    dg.set_defaults(func=cmd_digest)
    sub.add_parser("calib").set_defaults(func=cmd_calib)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
