"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's artifacts (figure, table
or theorem) — asserting the paper's claim while timing the machinery —
and prints the rows it produced, so a ``pytest benchmarks/
--benchmark-only -s`` run doubles as the reproduction report recorded in
EXPERIMENTS.md.

At session end every pytest-benchmark measurement is additionally
persisted to ``BENCH_<area>.json`` at the repo root (one file per
benchmark module, ``area`` = the module stem minus its ``test_bench_``
prefix) via :func:`repro.obs.export.dump_bench_json`, so CI can archive
the numbers and successive runs diff cleanly (stable JSON, sorted keys).
Each file's ``meta`` carries an environment fingerprint (CPU count,
Python version, platform, commit), so baselines recorded on different
machines or trees say so.
"""

import os
import platform
import subprocess
from pathlib import Path

import pytest


def emit(title: str, body: str = "") -> None:
    """Print a labeled reproduction block (visible with -s; harmless
    when captured)."""
    print(f"\n── {title} " + "─" * max(0, 60 - len(title)))
    if body:
        print(body)


def _area(fullname: str) -> str:
    """``benchmarks/test_bench_rv_throughput.py::test_x[1]`` → ``rv_throughput``."""
    stem = Path(fullname.split("::", 1)[0]).stem
    return stem.removeprefix("test_bench_") or stem


def _fingerprint(root: Path) -> dict:
    """Where the numbers were measured; ``commit`` is ``None`` when git
    is unavailable or ``root`` is not a checkout."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def pytest_sessionfinish(session, exitstatus):
    """Persist every successful benchmark measurement to BENCH_<area>.json."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    try:
        from repro.obs.export import dump_bench_json
    except ImportError:  # repro not importable (e.g. PYTHONPATH unset)
        return
    by_area: dict[str, list[dict]] = {}
    for bench in bench_session.benchmarks:
        if bench.has_error:
            continue
        stats = bench.stats
        record = {
            "fullname": bench.fullname,
            "name": bench.name,
            "group": bench.group,
            "params": bench.params,
            "rounds": stats.rounds,
            "iterations": bench.iterations,
            "mean_s": stats.mean,
            "median_s": stats.median,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "ops": stats.ops,
        }
        # benchmarks annotate non-timing observations (payload sizes,
        # counts) via benchmark.extra_info; persist them alongside
        if bench.extra_info:
            record["extra_info"] = dict(bench.extra_info)
        by_area.setdefault(_area(bench.fullname), []).append(record)
    root = Path(__file__).resolve().parent.parent
    environment = _fingerprint(root)
    for area, records in sorted(by_area.items()):
        dump_bench_json(root / f"BENCH_{area}.json", records,
                        meta={"area": area, **environment})
