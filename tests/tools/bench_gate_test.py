#!/usr/bin/env python3
"""Unit tests for tools/bench_gate.py.

Builds miniature repo trees in temp dirs (a baseline, the real
bench_compare.py, and a stand-in bench binary that writes a fixed JSON)
and calls gate(root) directly, checking its exit code per outcome.
"""

import contextlib
import importlib.util
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent.parent / "tools"
spec = importlib.util.spec_from_file_location("bench_gate",
                                              TOOLS / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gate)


def bench_doc(speedup):
    return {"schema_version": 1, "benchmark": "x", "results": [],
            "derived": {"x_speedup": speedup}}


def make_tree(root, emitted_speedup=4.0, exit_code=0):
    """Baseline x_speedup = 4.0; bench_x emits `emitted_speedup`."""
    (root / "bench" / "baselines").mkdir(parents=True)
    (root / "bench" / "baselines" / "BENCH_x.json").write_text(
        json.dumps(bench_doc(4.0)), encoding="utf-8")
    (root / "tools").mkdir()
    shutil.copy(TOOLS / "bench_compare.py", root / "tools")
    binary = root / "build" / "bench" / "bench_x"
    binary.parent.mkdir(parents=True)
    # Same contract as a real bench: `--smoke OUT` writes OUT.
    binary.write_text(
        f"#!{sys.executable}\n"
        "import json, sys\n"
        "assert sys.argv[1] == '--smoke'\n"
        f"json.dump({bench_doc(emitted_speedup)!r}, open(sys.argv[2], 'w'))\n"
        f"sys.exit({exit_code})\n", encoding="utf-8")
    binary.chmod(0o755)


class BenchGateTest(unittest.TestCase):
    def gate_tree(self, mutate=None, **tree):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            make_tree(root, **tree)
            if mutate:
                mutate(root)
            return bench_gate.gate(root)

    def test_matching_run_passes(self):
        self.assertEqual(self.gate_tree(), 0)

    def test_regression_fails(self):
        self.assertEqual(self.gate_tree(emitted_speedup=2.0), 1)

    def test_summary_names_regressed_metric(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate_tree(emitted_speedup=2.0), 1)
        summary = out.getvalue().split("bench_gate summary:")[1]
        self.assertIn("x: FAIL (exit 1)", summary)
        self.assertIn("derived x_speedup: 4 -> 2", summary)

    def test_failing_bench_fails(self):
        self.assertEqual(self.gate_tree(exit_code=3), 1)

    def test_summary_names_bench_exit_code(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.gate_tree(exit_code=3), 1)
        summary = out.getvalue().split("bench_gate summary:")[1]
        self.assertIn("bench_x exited 3", summary)

    def test_missing_binary_is_load_error(self):
        self.assertEqual(
            self.gate_tree(
                lambda root: (root / "build/bench/bench_x").unlink()), 2)

    def test_no_baselines_is_load_error(self):
        self.assertEqual(
            self.gate_tree(
                lambda root: (root / "bench/baselines/BENCH_x.json").unlink()),
            2)


if __name__ == "__main__":
    unittest.main()
