#!/usr/bin/env python3
"""CI guard: the dense-kernel benchmarks must not regress.

Compares fresh medians of the Büchi closure and decomposition benchmark
suites against the committed ``BENCH_buchi_closure.json`` /
``BENCH_buchi_decomposition.json`` baselines and fails (exit 1) when any
benchmark's fresh median exceeds ``multiplier ×`` its committed median
plus a small absolute slack (shared-runner noise floor).

Protocol — order matters, because the benchmark session itself
overwrites the ``BENCH_*.json`` files at the repo root on exit:

1. snapshot the committed baselines (text and parsed medians) *before*
   running anything;
2. run each benchmark module ``--runs`` times (default 3) and take the
   median of the per-run medians, so one scheduler hiccup cannot fail
   the build;
3. restore the committed baseline files afterwards, pass or fail, so
   the guard never dirties the working tree.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py
    PYTHONPATH=src python scripts/check_bench_regression.py --multiplier 2.0 --runs 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (baseline json at repo root, benchmark module that regenerates it)
GUARDED = (
    ("BENCH_buchi_closure.json", "benchmarks/test_bench_buchi_closure.py"),
    ("BENCH_buchi_decomposition.json", "benchmarks/test_bench_buchi_decomposition.py"),
    ("BENCH_obs_overhead.json", "benchmarks/test_bench_obs_overhead.py"),
    ("BENCH_checks.json", "benchmarks/test_bench_checks.py"),
    ("BENCH_service_sharded.json", "benchmarks/test_bench_service_sharded.py"),
    ("BENCH_rv_throughput.json", "benchmarks/test_bench_rv_throughput.py"),
    ("BENCH_service.json", "benchmarks/test_bench_service.py"),
)

#: Absolute slack added to every threshold: sub-50ms benchmarks on a
#: loaded shared runner jitter by more than any honest multiplier.
SLACK_S = 0.05


def medians_of(path: Path) -> dict[str, float]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        record["fullname"]: record["median_s"]
        for record in data["benchmarks"]
    }


def run_suite(module: str) -> int:
    return subprocess.call(
        [sys.executable, "-m", "pytest", module, "--benchmark-only", "-q"],
        cwd=ROOT,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--multiplier", type=float, default=2.0,
        help="fail when fresh median > multiplier * committed median (+ slack)",
    )
    parser.add_argument(
        "--runs", type=int, default=3,
        help="benchmark runs per module; the median of the runs is compared",
    )
    args = parser.parse_args()

    snapshots: dict[Path, str] = {}
    baselines: dict[str, dict[str, float]] = {}
    for bench_json, module in GUARDED:
        path = ROOT / bench_json
        if not path.exists():
            print(f"error: committed baseline {bench_json} not found", file=sys.stderr)
            return 2
        snapshots[path] = path.read_text(encoding="utf-8")
        baselines[module] = medians_of(path)

    failures: list[str] = []
    try:
        for bench_json, module in GUARDED:
            path = ROOT / bench_json
            per_run: dict[str, list[float]] = {}
            for run in range(args.runs):
                code = run_suite(module)
                if code != 0:
                    print(f"error: {module} exited {code}", file=sys.stderr)
                    return 2
                for fullname, median in medians_of(path).items():
                    per_run.setdefault(fullname, []).append(median)
            baseline = baselines[module]
            for fullname, samples in sorted(per_run.items()):
                fresh = statistics.median(samples)
                committed = baseline.get(fullname)
                if committed is None:
                    print(f"  new benchmark (no baseline): {fullname}")
                    continue
                threshold = args.multiplier * committed + SLACK_S
                verdict = "ok" if fresh <= threshold else "REGRESSION"
                print(
                    f"  {verdict}: {fullname}: fresh {fresh:.6f}s vs "
                    f"committed {committed:.6f}s (threshold {threshold:.6f}s)"
                )
                if fresh > threshold:
                    failures.append(fullname)
            missing = sorted(set(baseline) - set(per_run))
            for fullname in missing:
                print(f"  REGRESSION: baseline benchmark vanished: {fullname}")
                failures.append(fullname)
    finally:
        for path, text in snapshots.items():
            path.write_text(text, encoding="utf-8")

    if failures:
        print(f"{len(failures)} benchmark regression(s)", file=sys.stderr)
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
