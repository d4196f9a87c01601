#!/usr/bin/env python3
"""Unit tests for tools/doc_lint.py.

Builds miniature repo trees in temp dirs and calls lint(root) directly,
checking that each rule fires on the drift it exists to catch and stays
quiet on a consistent tree.
"""

import importlib.util
import os
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent.parent / "tools" / "doc_lint.py"
spec = importlib.util.spec_from_file_location("doc_lint", TOOL)
doc_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(doc_lint)


BASELINE = '{"derived": {"metric_a": 1.0}}'

MATRIX_CPP = """
constexpr const char* kScenarioNames[] = {
    "alpha_storm", "beta_shift"};
"""

METRICS_CPP = """
std::string_view kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTcamShift:
      return "tcam_shift";
    case EventKind::kPolicyDecision:
      return "policy_decision";
  }
  return "unknown";
}
"""


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def make_tree(root):
    """A minimal repo tree that lints clean."""
    write(root, "README.md",
          "Kinds: `tcam_shift`, `policy_decision`. See `docs/SCENARIOS.md`.")
    write(root, "EXPERIMENTS.md", "Gated: metric_a.")
    write(root, "DESIGN.md", "Design.")
    write(root, "docs/METRICS.md", "| `tcam_shift` | | |\n"
                                   "| `policy_decision` | | |")
    write(root, "docs/SCENARIOS.md", "### alpha_storm\n### beta_shift\n")
    write(root, "bench/baselines/BENCH_x.json", BASELINE)
    write(root, "bench/bench_matrix.cpp", MATRIX_CPP)
    write(root, "src/obs/metrics.cpp", METRICS_CPP)


class DocLintTest(unittest.TestCase):
    def lint_tree(self, mutate=None):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            make_tree(root)
            if mutate:
                mutate(root)
            return doc_lint.lint(root)

    def test_clean_tree_passes(self):
        self.assertEqual(self.lint_tree(), [])

    def test_dead_path_in_root_doc(self):
        errors = self.lint_tree(
            lambda root: write(root, "DESIGN.md", "see `src/gone.h`"))
        self.assertTrue(any("src/gone.h" in e for e in errors))

    def test_dead_path_in_docs_subdir_is_caught(self):
        # The docs/ walk is recursive: a stale reference in a nested
        # document fails the lint too.
        errors = self.lint_tree(
            lambda root: write(root, "docs/deep/NOTES.md",
                               "see `src/also_gone.h`"))
        self.assertTrue(any("also_gone.h" in e for e in errors))

    def test_glob_path_matching_a_file_passes(self):
        def add_glob(root):
            write(root, "DESIGN.md", "see `src/obs/metrics.*`")
        self.assertEqual(self.lint_tree(add_glob), [])

    def test_glob_path_matching_nothing_fails(self):
        # A module deleted from under a `src/.../name.*` row: the glob is
        # checked like any other path, not skipped.
        errors = self.lint_tree(
            lambda root: write(root, "DESIGN.md",
                               "see `src/hermes/no_such_module.*`"))
        self.assertTrue(
            any("src/hermes/no_such_module.*" in e for e in errors))

    def test_unknown_bench_binary(self):
        errors = self.lint_tree(
            lambda root: write(root, "README.md", "run bench_nonexistent"))
        self.assertTrue(any("bench_nonexistent" in e for e in errors))

    def test_gated_metric_must_be_in_experiments(self):
        errors = self.lint_tree(
            lambda root: write(root, "EXPERIMENTS.md", "nothing here"))
        self.assertTrue(any("metric_a" in e for e in errors))

    def test_committed_baseline_is_gated(self):
        # The gated set is bench/baselines/ itself: a newly committed
        # baseline's metrics must be explained, with no CI edit.
        errors = self.lint_tree(
            lambda root: write(root, "bench/baselines/BENCH_y.json",
                               '{"derived": {"metric_b": 2.0}}'))
        self.assertTrue(
            any("metric_b" in e and "BENCH_y.json" in e for e in errors))

    def test_no_baselines_fails(self):
        errors = self.lint_tree(
            lambda root: os.remove(root / "bench/baselines/BENCH_x.json"))
        self.assertTrue(any("bench/baselines" in e for e in errors))

    def test_unreadable_baseline_fails(self):
        errors = self.lint_tree(
            lambda root: write(root, "bench/baselines/BENCH_x.json", "{}"))
        self.assertTrue(any("BENCH_x.json" in e for e in errors))

    def test_undocumented_scenario_fails(self):
        # Drop one scenario from the catalog doc: rule 4 must name it.
        errors = self.lint_tree(
            lambda root: write(root, "docs/SCENARIOS.md", "### alpha_storm\n"))
        self.assertTrue(any("beta_shift" in e for e in errors))

    def test_missing_scenarios_doc_fails(self):
        errors = self.lint_tree(
            lambda root: os.remove(root / "docs/SCENARIOS.md"))
        self.assertTrue(
            any("SCENARIOS.md" in e and "beta_shift" not in e for e in errors))

    def test_trace_kind_drift_in_readme(self):
        # Remove a kind from README's list: exactly the historical drift
        # (update_phase/cache_op went missing) this rule exists to catch.
        errors = self.lint_tree(
            lambda root: write(root, "README.md",
                               "Kinds: `tcam_shift`. `docs/SCENARIOS.md`"))
        self.assertTrue(
            any("README.md" in e and "policy_decision" in e for e in errors))

    def test_trace_kind_drift_in_metrics_catalog(self):
        errors = self.lint_tree(
            lambda root: write(root, "docs/METRICS.md",
                               "| `tcam_shift` | | |"))
        self.assertTrue(
            any("docs/METRICS.md" in e and "policy_decision" in e
                for e in errors))

    def test_catalog_row_with_registering_source_passes(self):
        def add_metric(root):
            write(root, "docs/METRICS.md", "| `tcam_shift` | | |\n"
                                           "| `policy_decision` | | |\n"
                                           "| `cache.hits` | counter | |")
            write(root, "src/cache/cache.cpp",
                  'auto c = attached_counter("cache.hits");')
        self.assertEqual(self.lint_tree(add_metric), [])

    def test_catalog_row_nothing_registers_fails(self):
        # A documented metric no code registers (the stale `gate.redundant`
        # row this rule exists to catch).
        errors = self.lint_tree(
            lambda root: write(root, "docs/METRICS.md",
                               "| `tcam_shift` | | |\n"
                               "| `policy_decision` | | |\n"
                               "| `gate.redundant` | counter | |"))
        self.assertTrue(
            any("docs/METRICS.md" in e and "gate.redundant" in e
                for e in errors))

    def test_cpp_reference_to_real_member_passes(self):
        # Namespace-qualified, with call parentheses, declared in a header
        # under bench/ (where report::open lives).
        def add_ref(root):
            write(root, "DESIGN.md",
                  "Moves start in `sim::Simulation::install_moves()`; "
                  "reports open via `report::open(name)`.")
            write(root, "src/sim/simulation.cpp",
                  "void Simulation::install_moves(Time now) {}")
            write(root, "bench/report.h",
                  "namespace report {\ninline Report open(const char*);\n}")
        self.assertEqual(self.lint_tree(add_ref), [])

    def test_cpp_reference_to_missing_member_fails(self):
        # The member exists nowhere the class is declared or qualified
        # (the stale `Simulation::start_update` this rule exists to catch).
        def add_ref(root):
            write(root, "DESIGN.md", "Moves start in "
                                     "`Simulation::start_update`.")
            write(root, "src/sim/simulation.h",
                  "class Simulation {\n  void install_moves();\n};")
            write(root, "src/update/update.cpp", "void start_update();")
        errors = self.lint_tree(add_ref)
        self.assertTrue(
            any("DESIGN.md" in e and "Simulation::start_update" in e
                for e in errors))

    def test_real_repo_lints_clean(self):
        repo = TOOL.parent.parent
        self.assertEqual(doc_lint.lint(repo), [])


if __name__ == "__main__":
    sys.exit(unittest.main())
