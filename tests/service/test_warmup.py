"""Tests for warm start: workload parsing, replay, error reporting."""

import json

import pytest

from repro.ltl import parse
from repro.service import (
    AnalysisService,
    Client,
    DecomposeRequest,
    InProcessTransport,
    WarmupError,
    load_workload,
    load_workload_data,
    parse_workload,
    replay_workload,
)

WORKLOAD = {
    "version": 1,
    "requests": [
        {"kind": "decompose", "formula": "G a", "alphabet": ["a", "b"]},
        {"kind": "classify", "formula": "F b", "alphabet": ["a", "b"]},
        {"kind": "check", "formula": "a U b", "alphabet": ["a", "b"]},
    ],
}


class TestLoadWorkload:
    def test_from_dict(self):
        requests = load_workload(WORKLOAD)
        assert [r.kind for r in requests] == ["decompose", "classify", "check"]
        assert requests[0].subject == parse("G a")
        assert requests[0].alphabet == frozenset("ab")

    def test_from_json_string(self):
        assert len(load_workload(json.dumps(WORKLOAD))) == 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(WORKLOAD))
        assert len(load_workload(path)) == 3

    def test_unknown_kind_carries_index(self):
        bad = {"requests": [{"kind": "frobnicate", "formula": "G a",
                             "alphabet": ["a"]}]}
        with pytest.raises(WarmupError, match=r"requests\[0\].*frobnicate"):
            load_workload(bad)

    @pytest.mark.parametrize("requests, match", [
        ([1], r"requests\[0\].*object"),
        ("ab", r"'requests' list"),
        ([{"kind": "monitor", "formula": "G a", "alphabet": ["a"],
           "horizon": "x"}], r"requests\[0\].*horizon"),
        ([{"kind": "decompose", "formula": "G a", "alphabet": ["a"]},
          {"kind": "decompose", "formula": "G a", "alphabet": 5}],
         r"requests\[1\].*alphabet"),
        ([{"kind": "monitor", "formula": "G a", "alphabet": ["a"],
           "events": 5}], r"requests\[0\].*events"),
    ], ids=["int-entry", "string-requests", "string-horizon", "int-alphabet",
            "int-events"])
    def test_malformed_entry_carries_index(self, requests, match):
        with pytest.raises(WarmupError, match=match):
            load_workload({"requests": requests})

    def test_unparseable_formula_carries_index(self):
        bad = {"requests": [
            {"kind": "decompose", "formula": "G a", "alphabet": ["a", "b"]},
            {"kind": "decompose", "formula": "((", "alphabet": ["a"]},
        ]}
        with pytest.raises(WarmupError, match=r"requests\[1\]"):
            load_workload(bad)

    def test_missing_fields_rejected(self):
        with pytest.raises(WarmupError, match="formula"):
            load_workload({"requests": [{"kind": "decompose"}]})

    def test_non_dict_rejected(self):
        with pytest.raises(WarmupError):
            load_workload([1, 2, 3])


class TestLoadWorkloadData:
    def test_splits_loading_from_parsing(self):
        data = load_workload_data(json.dumps(WORKLOAD))
        assert data == WORKLOAD  # raw dict: the form routers replicate
        assert len(parse_workload(data)) == 3

    def test_rejects_shapeless_data(self):
        with pytest.raises(WarmupError, match="requests"):
            load_workload_data('{"version": 1}')


class TestWarmStart:
    def test_client_warm_start_populates_the_cache(self):
        with Client.in_process(workers=0) as client:
            assert client.warm_start(WORKLOAD) == 3
            warmed = client.decompose(parse("G a"),
                                      alphabet=frozenset("ab"))
            assert warmed.cached

    def test_replays_through_the_normal_path(self):
        with Client.in_process(workers=0) as client:
            client.warm_start(WORKLOAD)
            snap = client.snapshot()
            assert snap["cache_misses"] >= 3

    def test_replay_workload_on_an_embedded_service(self):
        with AnalysisService(workers=0) as svc:
            count = replay_workload(svc, load_workload(WORKLOAD))
            assert count == 3
            warmed = svc.request(
                DecomposeRequest(parse("G a"), alphabet=frozenset("ab"))
            )
            assert warmed.cached

    def test_borrowed_service_shares_the_warm_cache(self):
        with AnalysisService(workers=0) as svc:
            client = Client(InProcessTransport(svc))
            client.warm_start(WORKLOAD)
            client.close()  # borrowed: svc stays up
            warmed = svc.request(
                DecomposeRequest(parse("G a"), alphabet=frozenset("ab"))
            )
            assert warmed.cached
