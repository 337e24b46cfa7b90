"""The paired comparison on synthetic runs."""

import json

from bench.common import spec
from bench.compare import compare, verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_improved_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    faster = [x * 1.2 for x in BASE]
    assert verdict(BASE, faster, 0.1, higher_is_better=True)["reading"] \
        == "improved"
    lower_latency = [x * 0.8 for x in BASE]
    assert verdict(BASE, lower_latency, 0.1,
                   higher_is_better=False)["reading"] == "improved"


def test_regressed_when_worse_by_more_than_the_bound():
    slower = [x * 0.8 for x in BASE]
    row = verdict(BASE, slower, 0.1, higher_is_better=True)
    assert row["reading"] == "regressed"
    assert row["wins_b"] == 0


def test_a_small_worsening_is_within_bound():
    slightly = [x * 0.97 for x in BASE]
    assert verdict(BASE, slightly, 0.1, higher_is_better=True)["reading"] \
        == "within bound"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 95.0]
    worse = [x * 0.85 for x in noisy]
    assert verdict(noisy, worse, 0.1, higher_is_better=True)["reading"] \
        == "unresolved"


def test_same_runs_do_not_separate():
    shuffled = BASE[5:] + BASE[:5]
    assert verdict(BASE, shuffled, 0.1, higher_is_better=True)["reading"] \
        == "within bound"


def _write_set(directory, values):
    directory.mkdir()
    for index, value in enumerate(values):
        metrics = {metric["name"]: {"value": value, "unit": metric["unit"]}
                   for metric in spec()["end_to_end"]}
        record = {"workload": "hot-inproc", "metrics": metrics,
                  "env": {"trace": 0, "recorded_at": float(index)}}
        (directory / f"run{index}.json").write_text(json.dumps(record))


def test_compare_reads_record_directories(tmp_path):
    _write_set(tmp_path / "a", BASE)
    _write_set(tmp_path / "b", [x * 1.5 for x in BASE])
    rows = {row["metric"]: row["reading"]
            for row in compare(tmp_path / "a", tmp_path / "b", spec())}
    assert rows["ops_per_s"] == "improved"
    assert rows["op_p50_us"] == "regressed"
