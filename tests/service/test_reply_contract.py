"""The reply contract, whichever way a reply was resolved, and the
accounting of a cache hit.

``submit()`` resolves a cache hit and a request whose key cannot be built
itself, holding the result or the error in the :class:`PendingReply`;
a miss holds the worker pool's future (already resolved when the pool is
inline).  The four must read alike: ``done()``, ``result()``,
``result(timeout=0)``, a re-raised error and ``add_done_callback`` behave
as a ``concurrent.futures.Future`` does."""

import io
import logging
import threading

import pytest

from repro.canonical import digest, stable_token
from repro.lattice import LatticeClosure, boolean_lattice
from repro.ltl import parse, translate
from repro.obs import REGISTRY
from repro.obs.trace import current_span
from repro.service import (
    AnalysisService,
    ClassifyRequest,
    Client,
    DecomposeRequest,
    ServiceResult,
    ServiceTimeout,
    handlers,
)
from repro.service.sharded.worker import ShardWorker
from repro.service.wire import encode_request, read_frame

ALPHABET = frozenset({"a", "b"})


def automaton(text="G a"):
    return translate(parse(text), "ab")


def key_error_request():
    """A request whose key cannot be built: a subject outside its
    lattice."""
    lattice = boolean_lattice(2)
    closure = LatticeClosure.from_closed_elements(lattice, [frozenset({0})])
    return DecomposeRequest(frozenset({7}), closure=closure)


def warmed(workers=2):
    service = AnalysisService(workers=workers)
    service.request(DecomposeRequest(automaton()))
    return service


#: name → (workers, warm the cache first, request, error result() raises)
_CASES = {
    "hit": (2, True, lambda: DecomposeRequest(automaton()), None),
    "key_error": (2, True, key_error_request, KeyError),
    "inline_miss": (0, False, lambda: DecomposeRequest(automaton("F b")),
                    None),
    "pooled_miss": (2, False, lambda: DecomposeRequest(automaton("F b")),
                    None),
    # a formula classify without an alphabet is uncacheable, and its
    # compute fails on the inline pool
    "inline_error": (0, False, lambda: ClassifyRequest(parse("G a")),
                     TypeError),
}


def _case(name):
    """A service and the reply of one submitted request of case
    ``name``, with the error its ``result()`` raises (or ``None``)."""
    workers, warm, request, error = _CASES[name]
    service = warmed(workers) if warm else AnalysisService(workers=workers)
    return service, service.submit(request()), error


CASES = list(_CASES)


class TestReplyContract:
    @pytest.mark.parametrize("name", CASES)
    def test_result_and_done_read_as_a_future(self, name):
        service, reply, error = _case(name)
        try:
            if name == "pooled_miss":
                reply.result(timeout=30)
            assert reply.done() is True
            if error is None:
                first = reply.result()
                assert isinstance(first, ServiceResult)
                # a resolved reply answers whatever the wait budget
                assert reply.result(timeout=0) is first
                assert reply.result() is first
                assert first.cached is (name == "hit")
            else:
                with pytest.raises(error) as raised:
                    reply.result()
                with pytest.raises(error) as again:
                    reply.result(timeout=0)
                # the one error object, re-raised each time
                assert again.value is raised.value
        finally:
            service.shutdown()
        assert service.pending == 0
        assert service.inflight() == []

    def test_errors_surface_from_result_never_from_submit(self):
        with warmed() as service:
            failed = service.submit(key_error_request())
            expired = service.submit(DecomposeRequest(automaton()),
                                     timeout=0.0)
            assert failed.done() and expired.done()
            with pytest.raises(KeyError):
                failed.result()
            with pytest.raises(ServiceTimeout, match="before compute"):
                expired.result()
            assert service.pending == 0

    @pytest.mark.parametrize("name", ["hit", "key_error", "inline_miss"])
    def test_a_callback_on_a_resolved_reply_runs_at_once_here(self, name):
        service, reply, _ = _case(name)
        with service:
            seen = []
            reply.add_done_callback(
                lambda done: seen.append((done, threading.get_ident())))
            # ran before add_done_callback returned, on this thread
            assert seen == [(reply, threading.get_ident())]

    def test_a_pooled_callback_runs_once_when_the_reply_resolves(self):
        service, reply, _ = _case("pooled_miss")
        with service:
            called = threading.Event()
            seen = []

            def callback(done):
                seen.append(done)
                called.set()

            reply.add_done_callback(callback)
            reply.result(timeout=30)
            assert called.wait(timeout=30)
            assert seen == [reply]

    @pytest.mark.parametrize("name", ["hit", "key_error", "inline_miss",
                                      "pooled_miss"])
    def test_a_raising_callback_is_logged_and_swallowed(self, name, caplog):
        service, reply, _ = _case(name)
        with service:
            if name == "pooled_miss":
                reply.result(timeout=30)
            called = []

            def callback(done):
                called.append(done)
                raise RuntimeError("callback failed")

            with caplog.at_level(logging.ERROR):
                reply.add_done_callback(callback)  # must not raise
            assert called == [reply]
        records = [record for record in caplog.records
                   if record.exc_info
                   and isinstance(record.exc_info[1], RuntimeError)]
        assert len(records) == 1
        assert "exception calling callback" in records[0].getMessage()


def frames(worker):
    """The frames a dispatcher queued, decoded, in order."""
    out = []
    while not worker._outq.empty():
        out.append(read_frame(io.BytesIO(worker._outq.get_nowait())))
    return out


class TestShardDispatch:
    def _hit_frame(self, frame_id):
        request = DecomposeRequest(parse("G a"), alphabet=ALPHABET)
        return {"id": frame_id, "op": "request",
                "request": encode_request(request),
                "key": handlers.cache_key(request)}

    def _worker(self):
        service = AnalysisService(workers=2)
        service.request(DecomposeRequest(parse("G a"), alphabet=ALPHABET))
        return ShardWorker(service, io.BytesIO(), io.BytesIO())

    def test_one_reply_frame_per_hit(self):
        worker = self._worker()
        with worker.service:
            ids = [f"r{index}" for index in range(12)]
            for frame_id in ids:
                assert worker._dispatch(self._hit_frame(frame_id)) is True
            assert worker._dispatch({"id": "p", "op": "ping"}) is True
            replies = frames(worker)
        # each hit's frame was queued inside its own dispatch, in order,
        # and exactly once
        assert [reply["id"] for reply in replies] == ids + ["p"]
        assert all(reply["ok"] and reply["result"]["cached"]
                   for reply in replies[:-1])

    def test_a_raising_completion_escapes_no_dispatch(self, caplog):
        worker = self._worker()

        def failing(frame_id, reply):
            raise RuntimeError("completion failed")

        worker._finish = failing
        with worker.service, caplog.at_level(logging.ERROR):
            assert worker._dispatch(self._hit_frame("r1")) is True
            # no error frame stands in for the lost reply
            assert frames(worker) == []
        assert any(record.exc_info
                   and isinstance(record.exc_info[1], RuntimeError)
                   for record in caplog.records)


def sample(name, **labels):
    """Value (counters, gauges) or count (histograms) of one child."""
    for family_sample in REGISTRY.to_dict()[name]["samples"]:
        if family_sample["labels"] == labels:
            return family_sample.get("value", family_sample.get("count"))
    return 0


class TestHitAccounting:
    N = 40

    def test_n_hits_move_each_count_by_n(self):
        requests = [DecomposeRequest(automaton(text))
                    for text in ("G a", "F b", "a U b", "GF a")]
        with Client.in_process(workers=2) as client:
            service = client.transport.service
            assert service.track_inflight and service.journal is not None
            for request in requests:
                client.submit(request).result()
            before = (
                sample("repro_service_cache_events_total",
                       kind="decompose", event="hit"),
                sample("repro_service_requests_total",
                       kind="decompose", outcome="ok"),
                sample("repro_service_request_seconds", kind="decompose"),
            )
            depth = sample("repro_service_queue_depth_count")
            replies = [client.submit(requests[index % len(requests)])
                       for index in range(self.N)]
            results = [reply.result() for reply in replies]
            after = (
                sample("repro_service_cache_events_total",
                       kind="decompose", event="hit"),
                sample("repro_service_requests_total",
                       kind="decompose", outcome="ok"),
                sample("repro_service_request_seconds", kind="decompose"),
            )
            assert [b - a for a, b in zip(before, after)] == [self.N] * 3
            assert sample("repro_service_queue_depth_count") == depth
            assert service.inflight() == []
            verbs = [client.decompose(requests[0].subject)
                     for _ in range(3)]
        assert all(result.cached for result in results)
        ids = {reply.context.request_id for reply in replies}
        ids |= {reply.request_id for reply in verbs}
        assert len(ids) == self.N + 3
        for reply, result in zip(replies, results):
            phases = reply.context.phases()
            assert set(phases) == {"compute"}
            assert phases["compute"] == pytest.approx(
                result.elapsed_seconds, rel=0.2)
            assert reply.context.end is not None  # closed

    @pytest.mark.parametrize("alphabet", [
        {"a", "b"}, frozenset({"a", "b"}), ["b", "a"], "ab",
        {1, 2, 3}, frozenset({3, 1, 2}), [2, 3, 1],
        {"a", 1, ("t", 2)}, frozenset({"a", 1}), [1, "a", ("t", 2)],
    ], ids=["str-set", "str-frozenset", "str-list", "str-str",
            "int-set", "int-frozenset", "int-list",
            "mixed-set", "mixed-frozenset", "mixed-list"])
    def test_formula_keys_keep_their_spelling(self, alphabet):
        formula = parse("G a")
        expected = "decompose:" + formula.canonical_key() + "@" + digest(
            ",".join(sorted(stable_token(a) for a in alphabet)))
        request = DecomposeRequest(formula, alphabet=alphabet)
        assert handlers.cache_key(request) == expected
        assert handlers.cache_key(request) == expected  # memoized

    def test_the_alphabet_memo_is_bounded(self):
        assert handlers._alphabet_digest.cache_info().maxsize is not None

    def test_alphabet_keys_do_not_depend_on_what_was_keyed_first(self):
        # {1, "a"} == {True, "a"} as sets, but their tokens differ
        def key(alphabet):
            return handlers.cache_key(
                DecomposeRequest(parse("G a"), alphabet=alphabet))

        handlers._alphabet_digest.cache_clear()
        fresh = key({True, "a"})
        handlers._alphabet_digest.cache_clear()
        ints = key(frozenset({1, "a"}))
        assert key({True, "a"}) == fresh != ints
        assert key(frozenset({1, "a"})) == ints

    def test_a_hit_runs_nothing_current_and_records_its_root(self,
                                                             recorder):
        with warmed() as service:
            reply = service.submit(DecomposeRequest(automaton()))
            reply.result()
            assert current_span() is None
            spans = [span for span in recorder.finished()
                     if span.request is reply.context]
        # the root alone: the hit's one phase is charged, not opened
        assert spans == [reply.context]
        assert set(reply.context.phases()) == {"compute"}
