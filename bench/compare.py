"""The paired comparison of two sets of result records.

A set is a directory of records written by ``bench/run.py`` (searched
recursively; traced records are ignored).  Records of one workload pair
up in the order they ran: the first of A with the first of B, and so on.
Each workload × end-to-end metric gets one row, read with A as the
parent:

* **improved** — B is better in at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in B's favour, by more than A's
  interquartile range;
* **unresolved** — otherwise, when A's own spread (interquartile range
  over median) is wider than the metric's bound, unless every run of B
  reads better than every run of A;
* **regressed** — otherwise, when B's median is worse than A's by more
  than the bound;
* **within bound** — everything else.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    """``{workload: [metric values of each run, in run order]}``."""
    runs: dict[str, list[tuple]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("env", {}).get("trace"):
            continue
        values = {name: metric["value"]
                  for name, metric in record["metrics"].items()}
        runs.setdefault(record["workload"], []).append(
            (record["env"]["recorded_at"], values))
    return {workload: [values for _, values in sorted(rows, key=lambda r: r[0])]
            for workload, rows in runs.items()}


def iqr(values) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def verdict(a: list[float], b: list[float], bound: float,
            higher_is_better: bool) -> dict:
    """One row of the comparison for one metric (A is the parent)."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    median_a, median_b = statistics.median(a), statistics.median(b)
    spread = iqr(a)
    gain = sign * (median_b - median_a)
    worse = -gain / abs(median_a) if median_a else 0.0
    all_better = min(b) > max(a) if higher_is_better else max(b) < min(a)
    if wins >= WIN_SHARE * len(pairs) and gain > spread:
        reading = "improved"
    elif spread / abs(median_a) > bound and not all_better:
        reading = "unresolved"
    elif worse > bound:
        reading = "regressed"
    else:
        reading = "within bound"
    return {
        "median_a": median_a, "median_b": median_b,
        "change": (median_b - median_a) / median_a if median_a else 0.0,
        "spread_a": spread / abs(median_a) if median_a else 0.0,
        "wins_b": wins, "pairs": len(pairs), "reading": reading,
    }


def compare(a_dir: Path, b_dir: Path, spec: dict) -> list[dict]:
    a_runs, b_runs = load(a_dir), load(b_dir)
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run[name] for run in a_runs[workload]]
            b = [run[name] for run in b_runs[workload]]
            pairs = min(len(a), len(b))
            if pairs < 2:
                continue
            row = verdict(a[:pairs], b[:pairs], metric["bound"],
                          metric["better"] == "higher")
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':12s} {'metric':12s} {'median A':>12s} "
             f"{'median B':>12s} {'change':>8s} {'IQR A':>7s} "
             f"{'B wins':>7s}  reading"]
    for row in rows:
        lines.append(
            f"{row['workload']:12s} {row['metric']:12s} "
            f"{row['median_a']:12.6g} {row['median_b']:12.6g} "
            f"{row['change']:+8.2%} {row['spread_a']:7.2%} "
            f"{row['wins_b']:>3d}/{row['pairs']:<3d}  {row['reading']}")
    return "\n".join(lines)
