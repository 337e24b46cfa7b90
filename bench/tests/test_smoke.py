"""One-second runs of every workload, untraced and traced: every metric
``BENCHMARK.json`` names is printed with a finite value."""

import json
import math
import subprocess
import sys

import pytest

from bench.common import ROOT, WORKLOADS, spec


def _run(*args, record):
    finished = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args,
         "--record", str(record)],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=300,
    )
    return finished.returncode, finished.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_finite(workload, trace, tmp_path):
    code, lines = _run("--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", str(trace),
                       record=tmp_path / "record.json")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in metrics}
    for metric in metrics:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"]), metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the run
    fails without printing a result."""
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    finished = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hot-inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, stdout=subprocess.PIPE, timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout == ""
