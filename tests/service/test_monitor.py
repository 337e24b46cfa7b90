"""The ``Monitor`` verb (PR 10): trace evaluation as a service request.

Covers the whole stack: typed client reply, wire round-trip of the
trace/horizon payload, answer-cache keys (trace + horizon), the
policy-grouping routing key (every trace of one policy lands on the
shard that compiled its monitor), and sharded end-to-end behavior.
"""

import pytest

from repro.ltl import parse
from repro.ltl.monitoring import Verdict3
from repro.rv.verdicts import MonitorOutcome, Verdict4
from repro.service import (
    Client,
    MonitorReply,
    MonitorRequest,
    ShardedService,
    ShardedTransport,
)
from repro.service.handlers import cache_key, request_keys
from repro.service.wire import decode_request, encode_request

ALPHABET = frozenset({"a", "b"})


@pytest.fixture
def client():
    with Client.in_process(workers=2, max_pending=32) as c:
        yield c


class TestMonitorVerb:
    def test_typed_reply_with_outcome(self, client):
        reply = client.monitor(parse("G a"), alphabet=ALPHABET,
                               events="aab", horizon=4)
        assert isinstance(reply, MonitorReply)
        assert isinstance(reply.value, MonitorOutcome)
        assert reply.verdict is Verdict4.FALSIFIED_SAFETY
        assert reply.verdict3 is Verdict3.FALSE
        assert reply.falsified and not reply.bound_exceeded
        assert reply.horizon == 4
        assert reply.key.startswith("monitor:")

    def test_all_four_verdicts_through_the_service(self, client):
        cases = [
            ("G a", "ab", None, Verdict4.FALSIFIED_SAFETY),
            ("G (F a)", "bbb", 2, Verdict4.LIVENESS_BOUND_EXCEEDED),
            ("F b", "ab", None, Verdict4.SATISFIED_SO_FAR),
            ("G (F a)", "bb", 2, Verdict4.INCONCLUSIVE),
        ]
        for text, events, horizon, expected in cases:
            reply = client.monitor(parse(text), alphabet=ALPHABET,
                                   events=events, horizon=horizon)
            assert reply.verdict is expected, (text, events, horizon)

    def test_empty_trace_is_fine(self, client):
        reply = client.monitor(parse("G a"), alphabet=ALPHABET)
        assert reply.verdict3 is Verdict3.UNKNOWN
        assert reply.value.events == 0

    def test_monitor_requires_alphabet(self, client):
        with pytest.raises(TypeError):
            client.monitor(parse("G a"), events="ab").value  # noqa: B018

    def test_foreign_event_is_rejected(self, client):
        with pytest.raises(ValueError):
            client.monitor(parse("G a"), alphabet=ALPHABET,
                           events="axb").value  # noqa: B018


    def test_negative_horizon_is_rejected(self, client):
        with pytest.raises(ValueError):
            client.monitor(parse("GF a"), alphabet=ALPHABET, events="a",
                           horizon=-1).value  # noqa: B018

class TestMonitorCacheKeys:
    def test_cache_key_carries_trace_and_horizon(self):
        formula = parse("G a")
        base = MonitorRequest(subject=formula, alphabet=ALPHABET,
                              events=("a", "b"))
        same = MonitorRequest(subject=formula, alphabet=ALPHABET,
                              events=("a", "b"))
        other_trace = MonitorRequest(subject=formula, alphabet=ALPHABET,
                                     events=("b", "a"))
        other_horizon = MonitorRequest(subject=formula, alphabet=ALPHABET,
                                       events=("a", "b"), horizon=3)
        assert cache_key(base) == cache_key(same)
        assert cache_key(base) != cache_key(other_trace)
        assert cache_key(base) != cache_key(other_horizon)

    def test_routing_key_groups_by_policy_not_trace(self):
        formula = parse("G a")
        one = MonitorRequest(subject=formula, alphabet=ALPHABET,
                             events=("a",))
        two = MonitorRequest(subject=formula, alphabet=ALPHABET,
                             events=("b", "b"), horizon=7)
        other = MonitorRequest(subject=parse("F b"), alphabet=ALPHABET,
                               events=("a",))
        placement = request_keys(one)[1]
        assert placement == request_keys(two)[1]
        assert placement != request_keys(other)[1]
        assert placement.startswith("monitor:")

    def test_routing_key_of_other_kinds_is_the_cache_key(self):
        from repro.service import DecomposeRequest
        from repro.ltl import translate

        request = DecomposeRequest(translate(parse("G a"), "ab"))
        key, placement = request_keys(request)
        assert placement == key == cache_key(request)

    def test_second_identical_request_is_cached(self, client):
        first = client.monitor(parse("G a"), alphabet=ALPHABET,
                               events="aa", horizon=2)
        second = client.monitor(parse("G a"), alphabet=ALPHABET,
                                events="aa", horizon=2)
        assert first.cached is False
        assert second.cached is True
        assert second.verdict is first.verdict


class TestMonitorWire:
    def test_round_trip(self):
        request = MonitorRequest(subject=parse("G (a -> X b)"),
                                 alphabet=ALPHABET,
                                 events=("a", "b", "a"), horizon=5)
        rebuilt = decode_request(encode_request(request))
        assert rebuilt == request

    def test_round_trip_without_horizon(self):
        request = MonitorRequest(subject=parse("F b"), alphabet=ALPHABET,
                                 events=("b",))
        rebuilt = decode_request(encode_request(request))
        assert rebuilt == request
        assert rebuilt.horizon is None

    def test_trace_order_is_preserved(self):
        request = MonitorRequest(subject=parse("F b"), alphabet=ALPHABET,
                                 events=("b", "a", "b", "b", "a"))
        rebuilt = decode_request(encode_request(request))
        assert rebuilt.events == ("b", "a", "b", "b", "a")


class TestMonitorSharded:
    def test_sharded_monitor_end_to_end(self):
        with ShardedService(shards=2, workers_per_shard=1) as sharded:
            client = Client(ShardedTransport(sharded))
            policies = ["G a", "F b", "G (F a)"]
            for text in policies:
                for events in ("ab", "ba", "bbb"):
                    reply = client.monitor(parse(text), alphabet=ALPHABET,
                                           events=events, horizon=2)
                    assert isinstance(reply.value, MonitorOutcome)
            repeat = client.monitor(parse("G a"), alphabet=ALPHABET,
                                    events="ab", horizon=2)
            assert repeat.cached is True
            assert repeat.falsified
