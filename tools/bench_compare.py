#!/usr/bin/env python3
"""Compare two BENCH_<name>.json files and fail on regressions.

Usage:
    bench_compare.py BASELINE CANDIDATE [--threshold 0.25] [--gate derived|all]
    bench_compare.py BASELINE CANDIDATE --write-baseline

Both files must be schema_version-1 documents written by bench/report.h.
The comparison has two scopes:

  * derived{}  -- machine-independent ratio metrics (speedups, improvement
    percentages). These are always compared and, by default, are the only
    metrics that GATE (exit non-zero on >threshold regression). CI compares
    a fresh run against a committed baseline produced on a different
    machine, so raw timings cannot gate -- ratios of two measurements taken
    on the same machine can.
  * results[]  -- per-row numeric fields. Rows are matched by their string
    label fields plus occurrence index (benches may repeat the same label
    set, e.g. one row per backend). VALUE changes gate only with --gate all
    (useful for same-machine A/B runs), but STRUCTURAL breakage -- a
    baseline row or row field missing from the candidate, or numeric in the
    baseline and non-numeric in the candidate -- always gates: a bench that
    silently stopped emitting a row is broken regardless of machine noise.

Direction is inferred from the metric name: keys ending in _scaling
(host-time scaling ratios, cost at a large size / cost at a small one) are
lower-is-better; otherwise keys containing speedup / improvement /
throughput / per_s / rate are higher-is-better; everything else is
lower-is-better. A numeric baseline metric that is missing from the
candidate, or non-numeric there (e.g. a NaN serialized as null), is a
gating failure in every scope (it catches silently renamed or broken keys).

With --write-baseline the tool regenerates BASELINE from CANDIDATE instead
of comparing: CANDIDATE is schema-checked (schema_version 1, a benchmark
name, every derived metric numeric — a NaN serialized as null would make
the committed baseline silently ungateable), and when BASELINE already
exists its benchmark name must match (refuses to clobber one bench's
baseline with another's output). The written baseline drops the
candidate's top-level `metrics` object (the obs registry export): the
comparison never reads it, and it would be nearly all of the committed
file. This is how bench/baselines/*.json are refreshed after an
intentional performance change.

Exit codes: 0 ok, 1 regression (or missing gated metric), 2 usage/load
error.
"""

import argparse
import json
import os
import signal
import sys

# Die quietly when piped into `head` instead of raising BrokenPipeError.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

HIGHER_IS_BETTER_TOKENS = ("speedup", "improvement", "throughput", "per_s",
                           "rate")
# Checked first, so rate_recompute_scaling is a scaling ratio, not a rate.
LOWER_IS_BETTER_SUFFIX = "_scaling"
# Baselines smaller than this are too noisy for a relative comparison.
EPSILON = 1e-9


def usage_error(message):
    """Exit with the documented usage/load-error code (2), not sys.exit's
    default 1 for string arguments."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def higher_is_better(key):
    lowered = key.lower()
    if lowered.endswith(LOWER_IS_BETTER_SUFFIX):
        return False
    return any(token in lowered for token in HIGHER_IS_BETTER_TOKENS)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        usage_error(f"cannot load {path}: {exc}")
    if doc.get("schema_version") != 1:
        usage_error(f"{path}: unsupported schema_version "
                    f"{doc.get('schema_version')!r} (expected 1)")
    return doc


def row_key(row):
    """Identity of a row: its string-valued label fields, in order."""
    return tuple((k, v) for k, v in row.items() if isinstance(v, str))


def indexed_rows(rows):
    """Map (label-key, occurrence-index) -> row."""
    seen = {}
    out = {}
    for row in rows:
        key = row_key(row)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        out[(key, occurrence)] = row
    return out


class Comparison:
    def __init__(self, threshold):
        self.threshold = threshold
        self.lines = []
        self.gating_failures = []

    def compare_metric(self, scope, name, base, cand, gated,
                       structural_gated=None):
        """Compares one metric. `gated` controls whether a VALUE regression
        fails the gate; `structural_gated` (defaults to `gated`) controls
        whether the metric turning non-numeric does -- structural breakage
        gates even in scopes whose values are too machine-dependent to."""
        if structural_gated is None:
            structural_gated = gated
        if not isinstance(base, (int, float)):
            return
        if not isinstance(cand, (int, float)):
            # A numeric baseline metric that turned non-numeric (e.g. a NaN
            # serialized as null by report.h) is as broken as a missing key.
            self.lines.append(
                f"!! {scope} {name}: non-numeric in candidate ({cand!r})")
            if structural_gated:
                self.gating_failures.append(
                    f"{scope} {name}: baseline {base:.6g}, non-numeric in "
                    f"candidate ({cand!r})")
            return
        if abs(base) < EPSILON:
            self.lines.append(f"  ~ {scope} {name}: baseline ~0, skipped")
            return
        better = higher_is_better(name)
        delta = (cand - base) / abs(base)
        regression = -delta if better else delta
        arrow = "better" if (delta > 0) == better or delta == 0 else "worse"
        flag = "  "
        if regression > self.threshold:
            flag = "!!" if gated else " ?"
            if gated:
                self.gating_failures.append(
                    f"{scope} {name}: {base:.6g} -> {cand:.6g} "
                    f"({regression * 100:+.1f}% regression, "
                    f"{'higher' if better else 'lower'}-is-better)")
        self.lines.append(
            f"{flag} {scope} {name}: {base:.6g} -> {cand:.6g} "
            f"({delta * 100:+.1f}%, {arrow})")

    def missing(self, scope, name, gated):
        self.lines.append(f"!! {scope} {name}: missing from candidate")
        if gated:
            self.gating_failures.append(
                f"{scope} {name}: present in baseline, missing from "
                f"candidate")

    def added(self, scope, name):
        self.lines.append(f"  + {scope} {name}: new in candidate")


def write_baseline(baseline_path, candidate_path):
    """Regenerate a committed baseline from a fresh run, schema-checked,
    without the obs `metrics` export."""
    cand = load(candidate_path)
    name = cand.get("benchmark")
    if not isinstance(name, str) or not name:
        usage_error(f"{candidate_path}: missing benchmark name")
    derived = cand.get("derived", {}) or {}
    for key, value in derived.items():
        if not isinstance(value, (int, float)):
            # A null here (report.h's NaN/inf serialization) would commit
            # a baseline whose gate silently never compares that metric.
            usage_error(f"{candidate_path}: derived metric {key!r} is "
                        f"non-numeric ({value!r}); refusing to commit it "
                        f"as a baseline")
    if os.path.exists(baseline_path):
        base = load(baseline_path)
        if base.get("benchmark") != name:
            usage_error(f"refusing to overwrite {baseline_path} "
                        f"(benchmark {base.get('benchmark')!r}) with "
                        f"{candidate_path} (benchmark {name!r})")
    cand.pop("metrics", None)
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(cand, fh, indent=2)
        fh.write("\n")
    print(f"wrote {baseline_path} from {candidate_path} "
          f"(benchmark {name}, {len(derived)} derived metric(s), "
          f"{len(cand.get('results', []) or [])} row(s))")
    for key in sorted(derived):
        print(f"  derived {key}: {derived[key]:.6g}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH json files; fail on >threshold "
                    "regressions.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that fails the gate "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--gate", choices=("derived", "all"),
                        default="derived",
                        help="which metrics gate: derived{} only (default, "
                             "machine-independent) or all row fields too")
    parser.add_argument("--write-baseline", action="store_true",
                        help="schema-check CANDIDATE and write it to "
                             "BASELINE instead of comparing")
    args = parser.parse_args()

    if args.write_baseline:
        return write_baseline(args.baseline, args.candidate)

    base = load(args.baseline)
    cand = load(args.candidate)
    if base.get("benchmark") != cand.get("benchmark"):
        usage_error(f"benchmark mismatch: {base.get('benchmark')!r} vs "
                    f"{cand.get('benchmark')!r}")

    cmp = Comparison(args.threshold)

    base_derived = base.get("derived", {}) or {}
    cand_derived = cand.get("derived", {}) or {}
    for name, value in base_derived.items():
        if name not in cand_derived:
            cmp.missing("derived", name, gated=True)
        else:
            cmp.compare_metric("derived", name, value, cand_derived[name],
                               gated=True)
    for name in cand_derived:
        if name not in base_derived:
            cmp.added("derived", name)

    gate_rows = args.gate == "all"
    base_rows = indexed_rows(base.get("results", []) or [])
    cand_rows = indexed_rows(cand.get("results", []) or [])
    for (key, occurrence), row in base_rows.items():
        label = "/".join(v for _, v in key) or "(unlabeled)"
        if occurrence:
            label += f"#{occurrence}"
        match = cand_rows.get((key, occurrence))
        if match is None:
            # Structural: the candidate stopped emitting a whole row.
            cmp.missing(f"row[{label}]", "*", gated=True)
            continue
        for field, value in row.items():
            if isinstance(value, str):
                continue
            if field not in match:
                # Structural: the candidate stopped emitting this field.
                cmp.missing(f"row[{label}]", field, gated=True)
            else:
                cmp.compare_metric(f"row[{label}]", field, value,
                                   match[field], gated=gate_rows,
                                   structural_gated=True)
    for (key, occurrence) in cand_rows:
        if (key, occurrence) not in base_rows:
            label = "/".join(v for _, v in key) or "(unlabeled)"
            cmp.added(f"row[{label}]", "*")

    print(f"bench_compare: {base['benchmark']}  "
          f"(threshold {args.threshold * 100:.0f}%, gate={args.gate})")
    for line in cmp.lines:
        print(line)
    if cmp.gating_failures:
        print(f"\nFAIL: {len(cmp.gating_failures)} regression(s):",
              file=sys.stderr)
        for failure in cmp.gating_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: no gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
