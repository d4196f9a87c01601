#!/usr/bin/env python3
"""Lint the repo docs against the tree they describe.

Usage:
    doc_lint.py [REPO_ROOT]

Checks (all of them; exit 1 if any reference is broken):

  1. Every `bench_<name>` binary mentioned in README.md / EXPERIMENTS.md /
     DESIGN.md has a source file bench/<name>.cpp.
  2. Every repo-rooted path in backticks (src/..., tests/..., tools/...,
     bench/..., docs/..., examples/...) in those documents exists --
     trailing "/" means a directory, otherwise a file; a glob (`*`, `?`)
     must match at least one file.
  3. Every derived-metric name from a gated baseline (each committed
     bench/baselines/BENCH_*.json; tools/bench_gate.py gates exactly
     those) appears literally in EXPERIMENTS.md, so the gated numbers
     stay explained.
  4. Every scenario name in bench/bench_matrix.cpp's kScenarioNames
     catalog appears in docs/SCENARIOS.md -- adding a scenario to the
     matrix without documenting it is a lint failure.
  5. Every trace-event kind returned by kind_name() in
     src/obs/metrics.cpp appears in README.md and docs/METRICS.md (this
     rule would have caught README's trace-kind list silently going
     stale when update_phase/cache_op were added).
  6. Every backticked name in the first column of a docs/METRICS.md
     table appears as a quoted string literal ("name") in some file
     under src/ -- the reverse of tests/obs/metrics_catalog_test.cpp, so
     the catalog cannot keep a row for a metric no code registers.
  7. Every backticked C++ reference `A::b` (possibly namespace-qualified,
     possibly followed by a call's parentheses) names real code: some
     C++ file under src/, bench/, tools/ or examples/ declares or
     qualifies `A` (class/struct/enum/namespace A, or A::) and contains
     the identifier b.

Checks 1-3 and 7 cover README.md / EXPERIMENTS.md / DESIGN.md plus every
Markdown file under docs/, recursively.

The point is cheap honesty: docs routinely outlive renames, and a stale
`bench_foo` or dead path is invisible until a reader trips on it. This
runs as a tier-1 ctest (`doc_lint_py`) and as the CI doc-lint job.
"""

import json
import re
import signal
import sys
from pathlib import Path

# Die quietly when piped into `head` instead of raising BrokenPipeError.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

# bench_<name> tokens NOT followed by "." (which would make them file
# names like bench_compare.py or bench_output.txt, checked as paths).
BENCH_TOKEN = re.compile(r"\bbench_[a-z0-9_]+\b(?!\.)")

# Backtick-quoted, repo-rooted paths. Only top-level directories that are
# part of the tree are considered; `build/...` outputs and bare file
# names are intentionally out of scope.
PATH_TOKEN = re.compile(
    r"`((?:src|tests|tools|bench|docs|examples)/[A-Za-z0-9_.\-/*?]*)`"
)

# The scenario catalog literal in bench/bench_matrix.cpp.
SCENARIO_BLOCK = re.compile(r"kScenarioNames\[\][^;]*;")
QUOTED_NAME = re.compile(r'"([a-z0-9_]+)"')

# kind_name() switch cases in src/obs/metrics.cpp: the full set of
# trace-event kinds the obs layer can emit.
KIND_RETURN = re.compile(r'case\s+EventKind::\w+:\s*return\s+"([a-z0-9_]+)"')

# The backticked name opening a docs/METRICS.md table row.
CATALOG_NAME = re.compile(r"^\|\s*`([^`]+)`\s*\|", re.MULTILINE)

# A backticked C++ qualified name, `ns::A::b` or `A::b(...)`: group 1 is
# the qualifier chain, group 2 the member.
CPP_REF = re.compile(r"`((?:[A-Za-z_]\w*::)+)([A-Za-z_]\w*)(?:\([^`]*\))?`")
CPP_SOURCE_DIRS = ("src", "bench", "tools", "examples")
CPP_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")
# What a C++ file declares (class/struct/enum/union/namespace A, nested
# namespaces split) or qualifies (A::).
CPP_DECL = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+class)?|namespace)\s+([\w:]+)")
CPP_QUALIFIER = re.compile(r"\b(\w+)::")
IDENTIFIER = re.compile(r"\b[A-Za-z_]\w*\b")


def cpp_index(root: Path) -> list[tuple[set[str], set[str]]]:
    """Per C++ source file: (names it declares or qualifies, identifiers)."""
    index = []
    for top in CPP_SOURCE_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            owners = set(CPP_QUALIFIER.findall(text))
            for decl in CPP_DECL.findall(text):
                owners.update(part for part in decl.split("::") if part)
            index.append((owners, set(IDENTIFIER.findall(text))))
    return index


def lint(root: Path) -> list[str]:
    errors = []
    texts = {}
    names = list(DOCS)
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        names += sorted(
            str(p.relative_to(root)) for p in docs_dir.rglob("*.md")
        )
    for name in names:
        path = root / name
        if not path.is_file():
            errors.append(f"{name}: document missing")
            continue
        texts[name] = path.read_text(encoding="utf-8")

    for name, text in texts.items():
        for tok in sorted(set(BENCH_TOKEN.findall(text))):
            if not (root / "bench" / f"{tok}.cpp").is_file():
                errors.append(f"{name}: `{tok}` has no bench/{tok}.cpp")
        for tok in sorted(set(PATH_TOKEN.findall(text))):
            target = root / tok
            if "*" in tok or "?" in tok:
                if not any(root.glob(tok)):
                    errors.append(f"{name}: glob `{tok}` matches no file")
            elif tok.endswith("/"):
                if not target.is_dir():
                    errors.append(f"{name}: directory `{tok}` does not exist")
            elif not target.exists():
                errors.append(f"{name}: path `{tok}` does not exist")

    # 3. Gated metrics: every committed baseline is a gate.
    experiments = texts.get("EXPERIMENTS.md", "")
    gated = sorted((root / "bench" / "baselines").glob("BENCH_*.json"))
    if not gated:
        errors.append("bench/baselines: no BENCH_*.json baselines to gate")
    for baseline in gated:
        rel = baseline.relative_to(root)
        try:
            derived = json.loads(baseline.read_text(encoding="utf-8"))["derived"]
        except (json.JSONDecodeError, KeyError) as exc:
            errors.append(f"{rel}: unreadable derived metrics ({exc})")
            continue
        for key in sorted(derived):
            if key not in experiments:
                errors.append(
                    f"EXPERIMENTS.md: gated metric `{key}` ({rel}) "
                    "is never mentioned"
                )

    # 4. Scenario catalog: every matrix scenario is documented.
    matrix = root / "bench" / "bench_matrix.cpp"
    scenarios_doc = texts.get("docs/SCENARIOS.md", "")
    if matrix.is_file():
        block = SCENARIO_BLOCK.search(matrix.read_text(encoding="utf-8"))
        if not block:
            errors.append("bench/bench_matrix.cpp: kScenarioNames not found")
        else:
            scenario_names = QUOTED_NAME.findall(block.group(0))
            if not scenario_names:
                errors.append(
                    "bench/bench_matrix.cpp: kScenarioNames is empty"
                )
            if not scenarios_doc:
                errors.append("docs/SCENARIOS.md: document missing")
            for scenario in scenario_names:
                if scenario not in scenarios_doc:
                    errors.append(
                        f"docs/SCENARIOS.md: scenario `{scenario}` "
                        "(bench/bench_matrix.cpp) is never mentioned"
                    )

    # 5. Trace-event kinds: the kind_name() switch is the source of
    # truth; README's overview list and the METRICS.md catalog must
    # mention every kind it can return.
    metrics_cpp = root / "src" / "obs" / "metrics.cpp"
    if metrics_cpp.is_file():
        kinds = KIND_RETURN.findall(metrics_cpp.read_text(encoding="utf-8"))
        if not kinds:
            errors.append("src/obs/metrics.cpp: no kind_name() cases found")
        for doc in ("README.md", "docs/METRICS.md"):
            text = texts.get(doc, "")
            for kind in kinds:
                if f"`{kind}`" not in text:
                    errors.append(
                        f"{doc}: trace-event kind `{kind}` "
                        "(src/obs/metrics.cpp) is never mentioned"
                    )

    # 6. Catalog rows name registered things: each row's name is a string
    # literal somewhere under src/.
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((root / "src").rglob("*"))
        if path.suffix in (".h", ".cpp")
    )
    for name in CATALOG_NAME.findall(texts.get("docs/METRICS.md", "")):
        if f'"{name}"' not in sources:
            errors.append(
                f"docs/METRICS.md: `{name}` has no \"{name}\" string "
                "literal under src/"
            )

    # 7. C++ references: `A::b` names a member some source file has.
    index = cpp_index(root)
    for name, text in texts.items():
        for qualifiers, member in sorted(set(CPP_REF.findall(text))):
            owner = qualifiers.split("::")[-2]
            if not any(owner in owners and member in idents
                       for owners, idents in index):
                errors.append(
                    f"{name}: `{qualifiers}{member}` matches no C++ file "
                    f"under {', '.join(CPP_SOURCE_DIRS)} that declares "
                    f"`{owner}` and contains `{member}`"
                )
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    errors = lint(root)
    for err in errors:
        print(f"doc_lint: {err}", file=sys.stderr)
    if errors:
        print(f"doc_lint: {len(errors)} broken reference(s)", file=sys.stderr)
        return 1
    docs_dir = root / "docs"
    tree = sorted(docs_dir.rglob("*.md")) if docs_dir.is_dir() else []
    print(f"doc_lint: OK ({', '.join(DOCS)} + {len(tree)} under docs/)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
