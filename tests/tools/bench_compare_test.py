#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py gating behavior.

Runs the tool as a subprocess against temp BENCH json pairs and checks
exit codes: 0 = ok, 1 = gated regression / missing / non-numeric metric.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir, "tools", "bench_compare.py")


def doc(derived=None, results=None):
    return {
        "schema_version": 1,
        "benchmark": "unit_test_bench",
        "derived": derived or {},
        "results": results or [],
    }


def run_compare(base_doc, cand_doc, *extra_args):
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cand_path = os.path.join(tmp, "cand.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(base_doc, fh)
        with open(cand_path, "w", encoding="utf-8") as fh:
            json.dump(cand_doc, fh)
        proc = subprocess.run(
            [sys.executable, TOOL, base_path, cand_path, *extra_args],
            capture_output=True, text=True)
    return proc


class BenchCompareTest(unittest.TestCase):
    def test_identical_docs_pass(self):
        d = doc(derived={"hermes_speedup": 4.0})
        proc = run_compare(d, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_improvement_passes(self):
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={"hermes_speedup": 5.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_regression_beyond_threshold_fails(self):
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={"hermes_speedup": 2.0}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("regression", proc.stderr)

    def test_lower_is_better_direction(self):
        # No higher-is-better token in the name: a drop is an improvement.
        proc = run_compare(doc(derived={"median_ns": 100.0}),
                           doc(derived={"median_ns": 50.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        proc = run_compare(doc(derived={"median_ns": 100.0}),
                           doc(derived={"median_ns": 200.0}))
        self.assertEqual(proc.returncode, 1)

    def test_missing_derived_metric_fails(self):
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from", proc.stderr)

    def test_non_numeric_derived_metric_fails(self):
        # report.h serializes NaN/inf as null; that must gate, not skip.
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={"hermes_speedup": None}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("non-numeric", proc.stderr)

    def test_non_numeric_row_field_fails_by_default(self):
        # Structural breakage in rows gates even under --gate derived: a
        # bench whose row field turned null is broken, not noisy.
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a", "ns": None}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("non-numeric", proc.stderr)

    def test_missing_row_field_fails_by_default(self):
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a"}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from", proc.stderr)

    def test_missing_row_fails_by_default(self):
        base = doc(results=[{"case": "a", "ns": 10.0},
                            {"case": "b", "ns": 20.0}])
        cand = doc(results=[{"case": "a", "ns": 10.0}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("row[b]", proc.stderr)

    def test_row_value_regression_ungated_by_default(self):
        # VALUE changes in rows are machine-dependent: reported, no gate.
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a", "ns": 100.0}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("worse", proc.stdout)

    def test_row_value_regression_fails_with_gate_all(self):
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a", "ns": 100.0}])
        proc = run_compare(base, cand, "--gate", "all")
        self.assertEqual(proc.returncode, 1)

    def test_benchmark_name_mismatch_is_usage_error(self):
        base = doc()
        cand = dict(doc(), benchmark="other_bench")
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 2)


class WriteBaselineTest(unittest.TestCase):
    def run_write(self, cand_doc, base_doc=None):
        """Run --write-baseline; returns (proc, written-doc-or-None)."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            if base_doc is not None:
                with open(base_path, "w", encoding="utf-8") as fh:
                    json.dump(base_doc, fh)
            with open(cand_path, "w", encoding="utf-8") as fh:
                json.dump(cand_doc, fh)
            proc = subprocess.run(
                [sys.executable, TOOL, base_path, cand_path,
                 "--write-baseline"],
                capture_output=True, text=True)
            written = None
            if os.path.exists(base_path):
                with open(base_path, "r", encoding="utf-8") as fh:
                    written = json.load(fh)
        return proc, written

    def test_creates_missing_baseline(self):
        cand = doc(derived={"hermes_speedup": 4.0},
                   results=[{"case": "a", "ns": 10.0}])
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(written, cand)
        self.assertIn("hermes_speedup", proc.stdout)

    def test_drops_obs_metrics_export(self):
        # Comparison reads only schema_version/benchmark/derived/results;
        # the bulky obs export stays out of committed baselines.
        cand = dict(doc(derived={"hermes_speedup": 4.0},
                        results=[{"case": "a", "ns": 10.0}]),
                    metrics={"counters": {"tcam.inserts": 7}})
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("metrics", written)
        del cand["metrics"]
        self.assertEqual(written, cand)

    def test_overwrites_same_benchmark(self):
        old = doc(derived={"hermes_speedup": 2.0})
        new = doc(derived={"hermes_speedup": 4.0})
        proc, written = self.run_write(new, base_doc=old)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(written["derived"]["hermes_speedup"], 4.0)

    def test_written_baseline_round_trips_through_compare(self):
        # The regenerated file must be a valid comparison baseline.
        cand = doc(derived={"hermes_speedup": 4.0},
                   results=[{"case": "a", "ns": 10.0}])
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            with open(cand_path, "w", encoding="utf-8") as fh:
                json.dump(cand, fh)
            write = subprocess.run(
                [sys.executable, TOOL, base_path, cand_path,
                 "--write-baseline"], capture_output=True, text=True)
            self.assertEqual(write.returncode, 0, write.stderr)
            compare = subprocess.run(
                [sys.executable, TOOL, base_path, cand_path],
                capture_output=True, text=True)
        self.assertEqual(compare.returncode, 0, compare.stderr)

    def test_refuses_cross_benchmark_overwrite(self):
        old = doc(derived={"hermes_speedup": 2.0})
        new = dict(doc(derived={"hermes_speedup": 4.0}),
                   benchmark="other_bench")
        proc, written = self.run_write(new, base_doc=old)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("refusing", proc.stderr)
        # The existing baseline is untouched.
        self.assertEqual(written["benchmark"], "unit_test_bench")
        self.assertEqual(written["derived"]["hermes_speedup"], 2.0)

    def test_refuses_non_numeric_derived(self):
        cand = doc(derived={"hermes_speedup": None})
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("non-numeric", proc.stderr)
        self.assertIsNone(written)

    def test_refuses_bad_schema(self):
        cand = dict(doc(derived={"x": 1.0}), schema_version=2)
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIsNone(written)

    def test_refuses_missing_benchmark_name(self):
        cand = doc(derived={"x": 1.0})
        del cand["benchmark"]
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("benchmark name", proc.stderr)
        self.assertIsNone(written)


if __name__ == "__main__":
    unittest.main()
