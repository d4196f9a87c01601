#!/usr/bin/env python3
"""Run every gated bench in smoke mode and compare it to its baseline.

Usage (from any directory, after `cmake --preset default && cmake --build
build`):
    bench_gate.py

The gated set is the committed baselines: for each
bench/baselines/BENCH_<name>.json the script runs
`build/bench/bench_<name> --smoke BENCH_<name>.json` in the repository
root, then `tools/bench_compare.py` on the baseline and the fresh JSON
with its default threshold (25%) and gate (derived{} only). Committing a
baseline is therefore the only way to add a gate, and deleting one the
only way to drop it. Every bench runs even after a failure, so one run
reports every broken gate.

Why each gate reproduces on any machine:

  * hotpath, batchpath, lookup -- derived{} holds wall-clock ratios,
    both sides measured on the same machine in the same run. The
    committed baselines store each speedup's MINIMUM and each scaling
    ratio's MAXIMUM (hotpath's closure_abort_scaling, locate_run_scaling
    and rate_recompute_scaling, lower-is-better) over 5 local smoke runs,
    the conservative end of each: run-to-run noise (~+-20% on the
    ratios) stays inside the 25% gate while a real regression trips it.
  * faultpath -- runs entirely in virtual time, so its smoke ratios
    reproduce exactly.
  * update -- segway speedup, violation-free rate and two-phase loop rate
    are virtual-time ratios over a fixed seeded reroute storm.
  * cache -- FDRC hit-ratio improvements, modeled miss-path latency
    ratio and violation-free rate are virtual-time or counted ratios
    over a seeded Zipf workload. The bench also self-gates:
    it exits non-zero if any policy run records a dependency violation or
    FDRC fails to beat both LRU and LFU on hit ratio at every cache size.
  * matrix -- runs entirely in virtual time over seeded scenario traces,
    so every derived metric reproduces exactly. The bench also
    self-gates: it exits non-zero if the learned policy regresses any
    scenario, fails to beat the EWMA threshold by >=1.2x p99 somewhere,
    or replays non-deterministically.

The summary lists, under each failed gate, the derived metrics that
regressed (bench_compare.py's failure lines), the bench's exit code or
the missing binary.

Exit codes: 0 every gate passed, 1 a bench exited non-zero or
bench_compare.py found a regression, 2 usage/load error (no baselines, a
bench binary missing, or bench_compare.py could not load a file).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def gate(root: Path) -> int:
    baselines = sorted((root / "bench" / "baselines").glob("BENCH_*.json"))
    if not baselines:
        print("bench_gate: no bench/baselines/BENCH_*.json to gate",
              file=sys.stderr)
        return 2
    status = {}
    why = {}  # per failed gate: what the summary names as the cause
    for baseline in baselines:
        name = baseline.stem.removeprefix("BENCH_")
        binary = root / "build" / "bench" / f"bench_{name}"
        if not binary.is_file():
            print(f"bench_gate: {binary} missing (build it first)",
                  file=sys.stderr)
            status[name] = 2
            why[name] = [f"{binary} missing"]
            continue
        output = f"BENCH_{name}.json"
        print(f"== bench_{name} --smoke", flush=True)
        run = subprocess.run([str(binary), "--smoke", output], cwd=root)
        if run.returncode != 0:
            print(f"bench_gate: bench_{name} exited {run.returncode}",
                  file=sys.stderr)
            status[name] = 1
            why[name] = [f"bench_{name} exited {run.returncode}"]
            continue
        compare = subprocess.run(
            [sys.executable, str(root / "tools" / "bench_compare.py"),
             str(baseline), output], cwd=root, stderr=subprocess.PIPE,
            text=True)
        sys.stderr.write(compare.stderr)
        status[name] = compare.returncode
        why[name] = failure_lines(compare.stderr)
    print("\nbench_gate summary:")
    for name, code in status.items():
        if code == 0:
            print(f"  {name}: ok")
            continue
        print(f"  {name}: FAIL (exit {code})")
        for line in why.get(name, []):
            print(f"    {line}")
    return max(status.values())


def failure_lines(stderr: str) -> list:
    """What bench_compare.py names as failed: the regression lines under
    its FAIL header, or its error line."""
    lines = stderr.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("FAIL:"):
            return [failure.strip() for failure in lines[i + 1:]
                    if failure.strip()]
    return [line.strip() for line in lines if line.startswith("error:")]


if __name__ == "__main__":
    sys.exit(gate(ROOT))
