#!/usr/bin/env python3
"""Unit tests for tools/perf_ab.py.

compare() is driven by a stub runner that returns scripted results, so no
benchmark is built; run_once() is checked against a stand-in
perfbench/run.py in a temp checkout.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent.parent / "tools"
spec = importlib.util.spec_from_file_location("perf_ab", TOOLS / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)

METRICS = [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.2},
]


def result(ops, p50, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                        "op_p50_us": {"value": p50, "unit": "us"}}}


class StubRunner:
    """Serves scripted (digest, result) per side, in call order."""

    def __init__(self, parent, change, parent_digest="aa", change_digest="aa"):
        self.queue = {"parent": list(parent), "change": list(change)}
        self.digest = {"parent": parent_digest, "change": change_digest}
        self.calls = []

    def __call__(self, side, checkout, workload, seed):
        self.calls.append((side, checkout, workload, seed))
        return self.digest[side], self.queue[side].pop(0)


def run_compare(runner, pairs, workloads=("w",), seeds=(1,)):
    out = io.StringIO()
    code = perf_ab.compare("/p", "/c", list(workloads), list(seeds), pairs,
                           METRICS, runner, out=out)
    return code, out.getvalue()


def row(text, name):
    return next(line.split() for line in text.splitlines()
                if line.startswith(name + " "))


class CompareTest(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first(self):
        runner = StubRunner([result(1, 1)] * 4, [result(1, 1)] * 4)
        code, _ = run_compare(runner, 4)
        self.assertEqual(code, 0)
        self.assertEqual([c[0] for c in runner.calls],
                         ["parent", "change", "change", "parent"] * 2)
        self.assertTrue(all(c[1] == ("/p" if c[0] == "parent" else "/c")
                            for c in runner.calls))

    def test_every_workload_and_seed_runs(self):
        runner = StubRunner([result(1, 1)] * 4, [result(1, 1)] * 4)
        code, text = run_compare(runner, 1, workloads=("a", "b"), seeds=(1, 7))
        self.assertEqual(code, 0)
        self.assertEqual(sorted({(c[2], c[3]) for c in runner.calls}),
                         [("a", 1), ("a", 7), ("b", 1), ("b", 7)])
        self.assertIn("== b seed 7: 1 pairs, digest aa", text)

    def test_medians_iqrs_ratio_and_wins(self):
        # Parent ops 100..104 (median 102, IQR 2); change 150..154 except
        # one pair it loses. p50 lower is better: change wins every pair.
        parent = [result(100 + i, 10.0) for i in range(5)]
        change = [result(150 + i, 8.0) for i in range(4)] + [result(50, 8.0)]
        code, text = run_compare(StubRunner(parent, change), 5)
        self.assertEqual(code, 0)
        ops = row(text, "ops_per_s")
        self.assertEqual([float(x) for x in ops[1:6]],
                         [102.0, 2.0, 151.0, 2.0, round(151 / 102, 4)])
        self.assertEqual(ops[6], "4/5")
        self.assertEqual(len(ops), 7)  # 4 of 5 wins is no gain
        p50 = row(text, "op_p50_us")
        self.assertEqual(p50[6:], ["5/5", "gain"])

    def test_worse_than_bound_is_flagged(self):
        parent = [result(100, 10.0)] * 3
        change = [result(70, 10.0)] * 3  # 30% fewer ops, bound 25%
        code, text = run_compare(StubRunner(parent, change), 3)
        self.assertEqual(code, 0)
        self.assertEqual(row(text, "ops_per_s")[6:], ["0/3", "worse"])
        self.assertEqual(len(row(text, "op_p50_us")), 7)  # ties: no verdict
        self.assertIn("-- w seed 1: worse: ops_per_s; unresolved: none", text)

    def test_wide_overlapping_spread_is_unresolved(self):
        # Parent ops IQR 40 against a bound of 25 (25% of 100); the change
        # runs sit among the parent's.
        parent = [result(v, 10.0) for v in (100, 60, 140, 80, 120)]
        change = [result(v, 10.0) for v in (110, 70, 130, 90, 95)]
        code, text = run_compare(StubRunner(parent, change), 5)
        self.assertEqual(code, 0)
        self.assertEqual(row(text, "ops_per_s")[7:], ["unresolved"])
        self.assertIn("-- w seed 1: worse: none; unresolved: ops_per_s",
                      text)

    def test_wide_spread_with_every_change_run_better_is_resolved(self):
        parent = [result(v, 10.0) for v in (100, 60, 140, 80, 120)]
        change = [result(v + 100, 10.0) for v in (100, 60, 140, 80, 120)]
        code, text = run_compare(StubRunner(parent, change), 5)
        self.assertEqual(code, 0)
        self.assertEqual(row(text, "ops_per_s")[7:], ["gain"])
        self.assertIn("-- w seed 1: worse: none; unresolved: none", text)

    def test_tight_unchanged_metric_gets_no_verdict(self):
        parent = [result(v, 10.0) for v in (100, 101, 99, 100, 100)]
        change = [result(v, 10.0) for v in (100, 99, 101, 100, 100)]
        code, text = run_compare(StubRunner(parent, change), 5)
        self.assertEqual(code, 0)
        self.assertEqual(len(row(text, "ops_per_s")), 7)
        self.assertEqual(len(row(text, "op_p50_us")), 7)
        self.assertIn("-- w seed 1: worse: none; unresolved: none", text)

    def test_digest_mismatch_fails(self):
        runner = StubRunner([result(1, 1)] * 2, [result(1, 1)] * 2,
                            parent_digest="aa", change_digest="bb")
        code, text = run_compare(runner, 2)
        self.assertEqual(code, 1)
        self.assertIn("digests differ", text)

    def test_incorrect_output_fails(self):
        runner = StubRunner([result(1, 1)] * 2,
                            [result(1, 1), result(1, 1, correct=False)])
        code, text = run_compare(runner, 2)
        self.assertEqual(code, 1)
        self.assertIn("output not correct", text)

    def test_failed_run_fails_but_later_workloads_still_run(self):
        def runner(side, checkout, workload, seed):
            if workload == "bad":
                raise RuntimeError("perfbench exited 3")
            return "aa", result(1, 1)
        out = io.StringIO()
        code = perf_ab.compare("/p", "/c", ["bad", "good"], [1], 1, METRICS,
                               runner, out=out)
        self.assertEqual(code, 1)
        self.assertIn("perfbench exited 3", out.getvalue())
        self.assertIn("== good seed 1", out.getvalue())


class RunOnceTest(unittest.TestCase):
    def test_reads_digest_and_last_line_with_own_target_dir(self):
        with tempfile.TemporaryDirectory() as tmp:
            checkout = Path(tmp)
            (checkout / "perfbench").mkdir()
            (checkout / "perfbench" / "run.py").write_text(
                "import json, os, sys\n"
                "print('metric   ops_per_s 1 ops/s')\n"
                "print('digest 0123abcd')\n"
                "print(json.dumps({'correct': True, 'argv': sys.argv[1:],\n"
                "                  'target': os.environ['CARGO_TARGET_DIR'],\n"
                "                  'metrics': {}}))\n", encoding="utf-8")
            digest, res = perf_ab.run_once(str(checkout), "te_fattree", 90210,
                                           2.5, "/tmp/x/parent")
        self.assertEqual(digest, "0123abcd")
        self.assertEqual(res["target"], "/tmp/x/parent")
        self.assertEqual(res["argv"], ["--workload", "te_fattree", "--seed",
                                       "90210", "--seconds", "2.5"])

    def test_failed_run_raises(self):
        with tempfile.TemporaryDirectory() as tmp:
            checkout = Path(tmp)
            (checkout / "perfbench").mkdir()
            (checkout / "perfbench" / "run.py").write_text(
                "import sys\nsys.exit(3)\n", encoding="utf-8")
            with self.assertRaises(RuntimeError):
                perf_ab.run_once(str(checkout), "w", 1, None, "/tmp/x")


class MainTest(unittest.TestCase):
    def test_missing_benchmark_json_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = perf_ab.main(["--parent", tmp, "--change", tmp])
        self.assertEqual(code, 2)
        self.assertIn("BENCHMARK.json", err.getvalue())


if __name__ == "__main__":
    unittest.main()
