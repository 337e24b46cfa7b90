"""The service through the ops plane: journaled lifecycle, the in-flight
table, the slow-log with end-to-end phase attribution, readiness, and
worker-pool events."""

import dataclasses
import random
import threading
import time

import pytest

from repro.buchi.random_automata import random_automaton
from repro.ops.journal import EventJournal
from repro.rv.pool import WorkerPool
from repro.service import AnalysisService, DecomposeRequest
from repro.service.requests import ServiceOverloaded


@pytest.fixture
def journal():
    # debug level: these tests assert on the per-request chatter
    # (admitted, cache hit/miss) that the production posture filters
    return EventJournal(min_level="debug")


@pytest.fixture
def automaton():
    return random_automaton(random.Random(11), 4, name="ops")


def make_service(journal, **kwargs):
    kwargs.setdefault("workers", 2)
    return AnalysisService(journal=journal, **kwargs)


class TestLifecycleEvents:
    def test_request_lifecycle_is_journaled_and_correlated(self, journal, automaton):
        with make_service(journal) as service:
            reply = service.submit(DecomposeRequest(automaton))
            reply.result()
            request_id = reply.context.request_id
        names = [e.name for e in journal.events(request_id=request_id)]
        assert names[0] == "service.request_admitted"
        assert "cache.miss" in names
        assert names[-1] == "service.request_done"

    def test_cache_hit_is_journaled(self, journal, automaton):
        with make_service(journal) as service:
            service.request(DecomposeRequest(automaton))
            reply = service.submit(DecomposeRequest(automaton))
            assert reply.result().cached is True
            hits = journal.events(name="cache.hit")
            assert hits and hits[-1].request_id == reply.context.request_id

    def test_shed_overload_is_journaled(self, journal, automaton):
        gate = threading.Event()
        with make_service(journal, max_pending=1) as service:
            import repro.service.handlers as handlers
            original = handlers.compute
            handlers.compute = lambda request: gate.wait(5) or original(request)
            try:
                blocked = service.submit(DecomposeRequest(automaton))
                with pytest.raises(ServiceOverloaded):
                    service.submit(DecomposeRequest(automaton))
                gate.set()
                blocked.result()
            finally:
                handlers.compute = original
        shed = journal.events(name="service.request_shed")
        assert shed and dict(shed[0].fields)["cause"] == "overload"

    def test_shutdown_is_journaled_once(self, journal):
        service = make_service(journal)
        service.shutdown()
        service.shutdown()
        assert len(journal.events(name="service.shutdown")) == 1

    def test_cert_verify_pass_is_journaled(self, journal, automaton):
        with make_service(journal, verify_on_hit=True) as service:
            service.request(DecomposeRequest(automaton, certify=True))
            service.request(DecomposeRequest(automaton, certify=True))
        assert len(journal.events(name="cert.verify_pass")) == 1

    def test_poisoned_hit_journals_fail_and_rejection(self, journal, automaton):
        with make_service(journal, verify_on_hit=True) as service:
            good = service.request(DecomposeRequest(automaton, certify=True)).value
            key = service.request(DecomposeRequest(automaton, certify=True)).key
            bad_cert = dataclasses.replace(
                good.certificate, digest="0" * len(good.certificate.digest)
            )
            service.cache.put(key, dataclasses.replace(good, certificate=bad_cert))
            replayed = service.request(DecomposeRequest(automaton, certify=True))
            assert replayed.cached is False
        assert len(journal.events(name="cert.verify_fail")) == 1
        assert len(journal.events(name="cache.rejected")) == 1
        assert service.cache.stats().rejected == 1

    def test_journal_none_disables_everything(self, automaton):
        with AnalysisService(workers=1, journal=None) as service:
            service.request(DecomposeRequest(automaton))  # must not raise

    def test_default_posture_filters_chatter_keeps_anomalies(self, automaton):
        """At the default ``info`` level healthy per-request traffic
        journals *nothing* (that is the overhead budget's mechanism) —
        only lifecycle transitions and anomalies land."""
        quiet = EventJournal()  # default min_level: info
        with make_service(quiet, slow_threshold=0.0) as service:
            service.request(DecomposeRequest(automaton))
            service.request(DecomposeRequest(automaton))
        names = [e.name for e in quiet.events()]
        assert "service.request_admitted" not in names
        assert "cache.miss" not in names
        assert "cache.hit" not in names
        assert "service.request_done" not in names
        # anomalies (warn) and lifecycle (info) still land
        assert names.count("service.slow_request") == 2
        assert "service.shutdown" in names
        # flipping to debug turns the correlated chatter on live
        quiet.set_min_level("debug")
        with make_service(quiet) as service:
            service.request(DecomposeRequest(automaton))
        names = [e.name for e in quiet.events()]
        assert "service.request_admitted" in names
        assert "service.request_done" in names


class TestInflight:
    def test_blocked_request_is_visible_live(self, journal, automaton):
        entered, gate = threading.Event(), threading.Event()
        with make_service(journal) as service:
            import repro.service.handlers as handlers
            original = handlers.compute
            def blocking(request):
                entered.set()
                gate.wait(5)
                return original(request)
            handlers.compute = blocking
            try:
                reply = service.submit(DecomposeRequest(automaton), origin="test")
                assert entered.wait(5)
                rows = service.inflight()
                assert len(rows) == 1
                row = rows[0]
                assert row["request_id"] == reply.context.request_id
                assert row["kind"] == "decompose"
                assert row["origin"] == "test"
                assert row["age_seconds"] > 0
                assert "queue" in row["phases"]  # picked up, still computing
                gate.set()
                reply.result()
            finally:
                handlers.compute = original
        assert service.inflight() == []

    def test_track_inflight_off_means_no_contexts(self, journal, automaton):
        with make_service(journal, track_inflight=False) as service:
            reply = service.submit(DecomposeRequest(automaton))
            reply.result()
            assert reply.context is None
            assert service.inflight() == []
        # lifecycle events still flow, just uncorrelated
        done = journal.events(name="service.request_done")
        assert done and done[0].request_id is None


class TestSlowLog:
    def test_phases_reconstruct_wall_time_end_to_end(self, journal, automaton):
        """The acceptance criterion: for a slow request, the recorded
        phases sum to its measured wall time within 20%."""
        with make_service(journal, slow_threshold=0.0, verify_on_hit=True) as service:
            import repro.service.handlers as handlers
            original = handlers.compute
            handlers.compute = lambda request: time.sleep(0.08) or original(request)
            try:
                result = service.request(DecomposeRequest(automaton, certify=True))
                replayed = service.request(DecomposeRequest(automaton, certify=True))
            finally:
                handlers.compute = original
        entries = service.slow_log()
        assert len(entries) == 2
        for entry, res in zip(entries, (result, replayed)):
            phase_sum = sum(entry["phases"].values())
            assert phase_sum == pytest.approx(res.elapsed_seconds, rel=0.2)
        # the replayed request attributes its verify phase separately
        assert "verify" in entries[1]["phases"]

    def test_fast_requests_stay_out_of_the_slow_log(self, journal, automaton):
        with make_service(journal, slow_threshold=30.0) as service:
            service.request(DecomposeRequest(automaton))
        assert service.slow_log() == []
        assert journal.events(name="service.slow_request") == []

    def test_slow_request_event_carries_the_breakdown(self, journal, automaton):
        with make_service(journal, slow_threshold=0.0) as service:
            reply = service.submit(DecomposeRequest(automaton))
            reply.result()
        events = journal.events(name="service.slow_request")
        assert len(events) == 1
        fields = dict(events[0].fields)
        assert events[0].request_id == reply.context.request_id
        assert set(fields["phases"]) >= {"queue", "compute"}

    def test_kernel_subphases_attribute_to_the_request(self, journal, automaton):
        with make_service(journal, slow_threshold=0.0) as service:
            reply = service.submit(DecomposeRequest(automaton))
            reply.result()
        subphases = reply.context.subphases()
        assert any(name.startswith("repro.buchi.decompose.")
                   for name in subphases)

    def test_slow_threshold_validation(self, journal):
        with pytest.raises(ValueError):
            make_service(journal, slow_threshold=-1.0)


class TestReadiness:
    def test_open_idle_service_is_ready(self, journal):
        with make_service(journal) as service:
            state = service.readiness()
            assert state["ready"] is True
            assert state["pending"] == 0
            assert state["saturation"] == 0.0

    def test_saturated_service_reports_unready(self, journal, automaton):
        entered, gate = threading.Event(), threading.Event()
        with make_service(journal, workers=2, max_pending=2) as service:
            import repro.service.handlers as handlers
            original = handlers.compute
            def blocking(request):
                entered.set()
                gate.wait(5)
                return original(request)
            handlers.compute = blocking
            try:
                replies = [service.submit(DecomposeRequest(automaton))
                           for _ in range(2)]
                assert entered.wait(5)
                state = service.readiness()
                assert state["ready"] is False
                assert state["saturation"] == 1.0
                assert state["closed"] is False
                gate.set()
                for reply in replies:
                    reply.result()
                assert service.readiness()["ready"] is True
            finally:
                handlers.compute = original

    def test_closed_service_reports_unready(self, journal):
        service = make_service(journal)
        service.shutdown()
        state = service.readiness()
        assert state["ready"] is False
        assert state["closed"] is True
        assert service.closed is True


class TestPoolEvents:
    def test_worker_start_and_death_are_journaled(self, journal):
        pool = WorkerPool(2, journal=journal)
        pool.map(lambda x: x * x, list(range(8)))
        pool.shutdown()
        starts = journal.events(name="pool.worker_start")
        deaths = journal.events(name="pool.worker_death")
        assert 1 <= len(starts) <= 2
        assert len(deaths) == len(starts)
        assert {dict(e.fields)["worker"] for e in starts} == \
               {dict(e.fields)["worker"] for e in deaths}

    @pytest.mark.parametrize("dispatch", ["submit", "map"])
    def test_task_errors_are_journaled_and_reraised(self, journal, dispatch):
        def boom(item=None):
            if item != "fine":
                raise RuntimeError("exploded")

        with WorkerPool(2, journal=journal) as pool:
            with pytest.raises(RuntimeError, match="exploded"):
                if dispatch == "submit":
                    pool.submit(boom).result()
                else:
                    pool.map(boom, ["fine", "boom"])
        errors = journal.events(name="pool.task_error")
        assert len(errors) == 1
        assert dict(errors[0].fields)["error"] == "RuntimeError"

    def test_inline_pool_emits_no_worker_events(self, journal):
        pool = WorkerPool(0, journal=journal)
        assert pool.submit(lambda: 1).result() == 1
        pool.shutdown()
        assert journal.events(name="pool.worker_start") == []
