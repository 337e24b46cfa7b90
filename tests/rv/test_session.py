"""Tests for the session layer: per-trace cursors, bounded-queue
backpressure, and bad-prefix truncation."""

import pytest

from repro.ltl import RvMonitor, Verdict3, parse
from repro.rv import (
    BackpressureError,
    DecomposedMonitor,
    SessionError,
    SessionManager,
    TraceSession,
)


@pytest.fixture(scope="module")
def safety():
    return DecomposedMonitor.compile(parse("G a"), "ab")


@pytest.fixture(scope="module")
def liveness():
    return DecomposedMonitor.compile(parse("GF a"), "ab")


class TestTraceSession:
    def test_observe_matches_reference(self, safety):
        session = TraceSession("s", safety)
        reference = RvMonitor(parse("G a"), "ab")
        for e in "aaab":
            assert session.observe(e) is reference.observe(e)
        assert session.position == reference.position == 4

    def test_foreign_symbol_raises(self, safety):
        session = TraceSession("s", safety)
        with pytest.raises(ValueError, match="outside the alphabet"):
            session.observe("z")

    def test_encode_maps_symbols_and_rejects_foreign_ones(self, safety):
        session = TraceSession("s", safety)
        index = safety.symbol_index
        assert session.encode("ab") == [index["a"], index["b"]]
        with pytest.raises(ValueError, match="outside the alphabet"):
            session.enqueue_many("aza")
        assert session.pending == 0 and session.position == 0

    def test_enqueue_drain_equals_observe(self, safety):
        queued = TraceSession("q", safety)
        direct = TraceSession("d", safety)
        for e in "aab":
            queued.enqueue_many(e)
            direct.observe(e)
        queued.drain()
        assert queued.verdict is direct.verdict
        assert queued.position == direct.position

    def test_truncation_skips_table_steps(self, safety):
        session = TraceSession("s", safety)
        session.enqueue_many("ab")      # bad prefix reached at event 2
        assert session.drain() == 2
        session.enqueue_many("aaaa")    # verdict final — drained, not stepped
        assert session.drain() == 0
        assert session.position == 6
        assert session.verdict is Verdict3.FALSE

    def test_drain_stops_stepping_mid_queue(self, safety):
        session = TraceSession("s", safety)
        session.enqueue_many("abaa")    # FALSE after 2 events, 2 more queued
        assert session.drain() == 2
        assert session.position == 4

    def test_backpressure_raises_when_full(self, liveness):
        session = TraceSession("s", liveness, max_pending=3)
        session.enqueue_many("aba")
        with pytest.raises(BackpressureError, match="pending queue full"):
            session.enqueue_many("a")
        # drain frees capacity
        session.drain()
        session.enqueue_many("a")
        assert session.pending == 1

    def test_reset(self, safety):
        session = TraceSession("s", safety)
        for e in "ab":
            session.observe(e)
        assert session.finalized
        session.reset()
        assert session.verdict is Verdict3.UNKNOWN
        assert session.position == 0 and session.pending == 0


class TestSessionManager:
    def test_open_get_close(self, safety):
        manager = SessionManager()
        session = manager.open("s1", safety)
        assert manager.get("s1") is session
        assert "s1" in manager and len(manager) == 1
        assert manager.close("s1") is session
        assert "s1" not in manager

    def test_duplicate_open_rejected(self, safety):
        manager = SessionManager()
        manager.open("s1", safety)
        with pytest.raises(SessionError, match="already open"):
            manager.open("s1", safety)

    def test_unknown_ids_rejected(self):
        manager = SessionManager()
        with pytest.raises(SessionError, match="unknown session"):
            manager.get("nope")
        with pytest.raises(SessionError, match="unknown session"):
            manager.close("nope")

    def test_verdicts_snapshot(self, safety):
        manager = SessionManager()
        manager.open("a", safety).enqueue_many("aa")
        manager.open("b", safety).enqueue_many("ab")
        for session in manager:
            session.drain()
        assert manager.verdicts() == {"a": Verdict3.UNKNOWN, "b": Verdict3.FALSE}
