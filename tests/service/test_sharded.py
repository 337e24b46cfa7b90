"""The sharded analysis tier: consistent-hash routing, the worker
protocol, shard-death recovery, and the PR-4 cache-soundness regressions
re-run across the process boundary."""

import dataclasses
import io
import json
import os
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import LatticeClosure, boolean_lattice
from repro.ltl import parse, translate
from repro.obs.metrics import REGISTRY
from repro.ops.http import OpsServer
from repro.omega import LassoWord
from repro.ops.journal import EventJournal
from repro.service import (
    AnalysisService,
    CheckRequest,
    ClassifyRequest,
    Client,
    DecomposeRequest,
    MonitorRequest,
    ServiceClosed,
    ShardedService,
    ShardedTransport,
)
from repro.service.handlers import cache_key, compute, request_keys
from repro.service.sharded import HashRing
from repro.service.sharded import router as router_module
from repro.service.sharded.worker import ShardWorker
from repro.service.wire import (
    decode_result,
    encode_request,
    pack_frame,
    read_frame,
)

ALPHABET = frozenset({"a", "b"})


def automaton(text="a & F !a"):
    return translate(parse(text), "ab")


def sharded_journal():
    journal = EventJournal(min_level="debug")
    return journal


# -- the ring ----------------------------------------------------------------


class TestHashRing:
    @given(key=st.text(min_size=1, max_size=64), shards=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_routing_is_stable_for_fixed_shape(self, key, shards):
        """The acceptance property: same canonical key → same shard, on
        any two ring instances of the same shape (so routing survives
        router restarts and is identical across processes)."""
        first = HashRing(shards)
        second = HashRing(shards)
        owner = first.shard_for(key)
        assert 0 <= owner < shards
        assert second.shard_for(key) == owner

    @given(key=st.text(min_size=1, max_size=64), shards=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_preference_is_owner_first_permutation(self, key, shards):
        ring = HashRing(shards)
        preference = ring.preference(key)
        assert preference[0] == ring.shard_for(key)
        assert sorted(preference) == list(range(shards))

    def test_keys_spread_over_shards(self):
        ring = HashRing(4)
        owners = {ring.shard_for(f"decompose:buchi:{i:040x}")
                  for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_shape_is_validated(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


# -- the worker protocol, driven in-process over pipes -----------------------


class _PipedWorker:
    """A ShardWorker served on a thread, spoken to over real pipes."""

    def __init__(self, service, **kwargs):
        r_in, w_in = os.pipe()
        r_out, w_out = os.pipe()
        self.to_worker = os.fdopen(w_in, "wb")
        self.from_worker = os.fdopen(r_out, "rb", buffering=0)
        self.worker = ShardWorker(
            service,
            os.fdopen(r_in, "rb", buffering=0),
            os.fdopen(w_out, "wb"),
            **kwargs,
        )
        self.thread = threading.Thread(target=self.worker.serve, daemon=True)
        self.thread.start()

    def send(self, payload):
        self.to_worker.write(pack_frame(payload))
        self.to_worker.flush()

    def recv(self):
        return read_frame(self.from_worker)

    def close(self):
        try:
            self.to_worker.close()
        except OSError:
            pass
        self.thread.join(timeout=15.0)


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper recording the first
    argument of each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def piped_worker():
    service = AnalysisService(workers=2, max_pending=16)
    worker = _PipedWorker(service, shard_index=7)
    yield worker
    worker.close()


class TestWorkerProtocol:
    def test_ping_and_readyz(self, piped_worker):
        piped_worker.send({"id": "c1", "op": "ping"})
        pong = piped_worker.recv()
        assert pong["ok"] and pong["value"]["shard"] == 7
        piped_worker.send({"id": "c2", "op": "readyz"})
        ready = piped_worker.recv()
        assert ready["ok"] and ready["value"]["ready"] is True

    def test_request_reply_carries_trace_id(self, piped_worker):
        request = DecomposeRequest(parse("G a"), alphabet=ALPHABET)
        piped_worker.send({
            "id": "r-42", "op": "request",
            "request": encode_request(request), "trace_id": "r-42",
        })
        reply = piped_worker.recv()
        assert reply["id"] == "r-42" and reply["ok"]
        assert reply["result"]["cached"] is False
        # the router-minted id is the shard-side id too
        rows = piped_worker.worker.service.slow_log()
        piped_worker.send({"id": "c3", "op": "slowlog"})
        assert piped_worker.recv()["ok"]
        assert rows == [] or all("request_id" in row for row in rows)

    def test_unknown_op_is_a_typed_error(self, piped_worker):
        piped_worker.send({"id": "c9", "op": "transmogrify"})
        reply = piped_worker.recv()
        assert not reply["ok"]
        assert "transmogrify" in reply["error"]["message"]

    def test_warm_start_op_replays(self, piped_worker):
        piped_worker.send({
            "id": "c4", "op": "warm_start",
            "workload": {"version": 1, "requests": [
                {"kind": "decompose", "formula": "G b",
                 "alphabet": ["a", "b"]},
            ]},
        })
        reply = piped_worker.recv()
        assert reply["ok"] and reply["value"] == 1
        request = DecomposeRequest(parse("G b"), alphabet=ALPHABET)
        piped_worker.send({"id": "r1", "op": "request",
                           "request": encode_request(request)})
        assert piped_worker.recv()["result"]["cached"] is True

    def test_shutdown_acks_then_stops(self, piped_worker):
        piped_worker.send({"id": "c5", "op": "shutdown"})
        assert piped_worker.recv()["value"] == "bye"
        assert piped_worker.recv() is None  # clean EOF after drain
        piped_worker.thread.join(timeout=10.0)
        assert not piped_worker.thread.is_alive()

    def test_hits_are_served_without_the_pool(self):
        """A shard serves cache hits on its dispatch thread: 20 frames
        for a warmed request all come back cached under their own ids,
        and the shard's worker pool never starts."""
        from repro.service import handlers

        request = DecomposeRequest(parse("G a"), alphabet=ALPHABET)
        service = AnalysisService(workers=2, max_pending=16)
        service.cache.put(handlers.cache_key(request),
                          handlers.compute(request))
        worker = _PipedWorker(service)
        try:
            ids = [f"r{index}" for index in range(20)]
            for frame_id in ids:
                worker.send({"id": frame_id, "op": "request",
                             "request": encode_request(request)})
            replies = [worker.recv() for _ in ids]
            assert sorted(reply["id"] for reply in replies) == sorted(ids)
            assert all(reply["ok"] and reply["result"]["cached"]
                       for reply in replies)
            assert service.pool.started is False
        finally:
            worker.close()

    def test_hits_reuse_the_lines_encoding(self, monkeypatch):
        """A shard pickles a cached value once per cache line: 20 hits
        on a warmed key pickle it exactly once, and a recompute after
        ``invalidate`` is encoded afresh and decodes to the new value."""
        from repro.service import handlers
        from repro.service.wire import decode_result

        request = DecomposeRequest(parse("G a"), alphabet=ALPHABET)
        key = handlers.cache_key(request)
        service = AnalysisService(workers=2, max_pending=16)
        service.cache.put(key, handlers.compute(request))
        from repro.service import wire

        pickles = counting(monkeypatch, wire, "_pickled")
        worker = _PipedWorker(service)
        try:
            for index in range(20):
                worker.send({"id": f"r{index}", "op": "request",
                             "request": encode_request(request)})
            replies = [worker.recv() for _ in range(20)]
            assert all(reply["ok"] and reply["result"]["cached"]
                       for reply in replies)
            assert len(pickles) == 1
            assert len({json.dumps(reply["result"]["value"])
                        for reply in replies}) == 1

            service.cache.invalidate(key)
            worker.send({"id": "again", "op": "request",
                         "request": encode_request(request)})
            fresh = worker.recv()
            assert fresh["ok"] and fresh["result"]["cached"] is False
            assert len(pickles) == 2
            recomputed = service.cache.lookup(key)
            assert pickles[-1] is recomputed
            decoded = decode_result(fresh["result"], request).value
            assert decoded == recomputed
            assert decoded.verify_exact()
        finally:
            worker.close()

    def test_uncacheable_replies_encode_every_time(self, monkeypatch):
        """A request without a cache key (a check with a witness) has no
        line to keep its encoding on, so every reply is encoded."""
        from repro.service.sharded import worker as worker_module

        encoded = counting(monkeypatch, worker_module, "encode_value")
        request = CheckRequest(parse("G a"), alphabet=ALPHABET,
                               witness=LassoWord((), ("a",)))
        worker = _PipedWorker(AnalysisService(workers=1))
        try:
            for index in range(3):
                worker.send({"id": f"w{index}", "op": "request",
                             "request": encode_request(request)})
                reply = worker.recv()
                assert reply["ok"] and reply["result"]["key"] is None
                assert reply["result"]["value"] == {"t": "json", "v": True}
            assert encoded == [True, True, True]
        finally:
            worker.close()

    def test_cached_none_adopted_across_the_wire(self, monkeypatch):
        """PR-4 regression, rerun over the wire: a handler returning
        ``None`` must arrive as a real ``None`` value and be *adopted*
        as a cache hit on re-request — not resurrected as a miss by a
        sentinel mix-up anywhere in the encode/decode path."""
        from repro.service import handlers

        monkeypatch.setattr(handlers, "compute", lambda request: None)
        service = AnalysisService(workers=1)
        worker = _PipedWorker(service)
        try:
            request = DecomposeRequest(parse("G a"), alphabet=ALPHABET)
            worker.send({"id": "r1", "op": "request",
                         "request": encode_request(request)})
            first = worker.recv()
            assert first["ok"]
            assert first["result"]["value"] == {"t": "json", "v": None}
            assert first["result"]["cached"] is False
            worker.send({"id": "r2", "op": "request",
                         "request": encode_request(request)})
            second = worker.recv()
            assert second["ok"]
            assert second["result"]["value"] == {"t": "json", "v": None}
            assert second["result"]["cached"] is True  # adopted, not recomputed
        finally:
            worker.close()


# -- the frame's key: hits served from it, misses checked against it --------


def routed(request):
    """The request frame the router writes for ``request``, as the shard
    reads it."""
    flight = router_module._Flight(request, None, "client", HashRing(2))
    return read_frame(io.BytesIO(flight.frame()))


class TestFrameKey:
    def test_a_hit_decodes_no_subject_and_builds_no_key(self, monkeypatch):
        from repro.service import handlers, wire

        request = DecomposeRequest(parse("G a"), alphabet=ALPHABET)
        service = AnalysisService(workers=2, max_pending=16)
        service.cache.put(cache_key(request), compute(request))
        frame = routed(request)
        miss = routed(DecomposeRequest(parse("F b"), alphabet=ALPHABET))
        assert frame["key"] == cache_key(request)
        decodes = counting(monkeypatch, wire, "_decode_subject")
        keys = counting(monkeypatch, handlers, "request_keys")
        worker = _PipedWorker(service)
        try:
            for index in range(5):
                worker.send({**frame, "id": f"r{index}"})
            replies = [worker.recv() for _ in range(5)]
            assert all(reply["ok"] and reply["result"]["cached"]
                       and reply["result"]["key"] == frame["key"]
                       for reply in replies)
            assert decodes == [] and keys == []
            # a miss decodes its subject once and rebuilds its key once
            worker.send(miss)
            reply = worker.recv()
            assert reply["ok"] and reply["result"]["cached"] is False
            assert reply["result"]["key"] == miss["key"]
            assert len(decodes) == 1 and len(keys) == 1
        finally:
            worker.close()

    def test_a_disagreeing_key_fails_typed_on_a_miss(self):
        frame = routed(DecomposeRequest(parse("G a"), alphabet=ALPHABET))
        wrong = [
            cache_key(DecomposeRequest(parse("F b"), alphabet=ALPHABET)),
            # the same subject, certified: another cache line
            cache_key(DecomposeRequest(parse("G a"), alphabet=ALPHABET,
                                       certify=True)),
        ]
        errors = REGISTRY.counter(
            "repro_service_requests_total",
            "requests completed, by kind and outcome (ok/error/timeout)",
            ("kind", "outcome"),
        ).labels(kind="decompose", outcome="error")
        counted = errors.value
        service = AnalysisService(workers=1)
        worker = _PipedWorker(service)
        try:
            for index, key in enumerate(wrong + [7]):
                worker.send({**frame, "id": f"w{index}", "key": key})
                reply = worker.recv()
                assert not reply["ok"]
                assert reply["error"]["type"] == "WireError"
            assert len(service.cache) == 0
            # the two computed mismatches count as errors; the malformed
            # key is refused before admission
            assert errors.value == counted + 2
            worker.send(frame)
            reply = worker.recv()
            assert reply["ok"] and reply["result"]["cached"] is False
            assert [line["key"] for line in service.cache.lines()] == \
                [frame["key"]]
        finally:
            worker.close()

    def test_frames_without_a_key_are_served_as_before(self):
        uncacheable = CheckRequest(parse("G a"), alphabet=ALPHABET,
                                   witness=LassoWord((), ("a",)))
        # a subject outside its lattice: building the key raises
        outside = DecomposeRequest(
            frozenset({7}),
            closure=LatticeClosure.identity(boolean_lattice(2)),
        )
        frames = [routed(uncacheable), routed(outside)]
        assert all("key" not in frame for frame in frames)
        worker = _PipedWorker(AnalysisService(workers=1))
        try:
            worker.send(frames[0])
            reply = worker.recv()
            assert reply["ok"] and reply["result"]["key"] is None
            assert reply["result"]["value"] == {"t": "json", "v": True}
            worker.send(frames[1])
            reply = worker.recv()
            assert not reply["ok"] and reply["error"]["type"] == "KeyError"
        finally:
            worker.close()

    def test_monitor_and_certify_frames_with_verify_on_hit(self):
        from repro.certs import verify_certificate

        monitor = MonitorRequest(parse("G (a -> F b)"), alphabet=ALPHABET,
                                 events=("a", "b", "a"), horizon=2)
        key, placement = request_keys(monitor)
        assert key != placement  # a monitor is placed by its policy
        certify = DecomposeRequest(automaton(), certify=True)
        frames = {"m": routed(monitor), "c": routed(certify)}
        requests = {"m": monitor, "c": certify}
        service = AnalysisService(workers=2, verify_on_hit=True)
        worker = _PipedWorker(service)

        def serve(tag):
            worker.send({**frames[tag], "id": tag})
            reply = worker.recv()
            assert reply["ok"] and reply["id"] == tag
            return decode_result(reply["result"], requests[tag])

        try:
            first = {tag: serve(tag) for tag in frames}
            second = {tag: serve(tag) for tag in frames}
            assert not any(result.cached for result in first.values())
            assert all(result.cached for result in second.values())
            assert first["m"].value == second["m"].value == compute(monitor)
            assert verify_certificate(second["c"].value.certificate).ok
            # a poisoned line: the replay rejects it, and the recompute
            # decodes the frame and checks its key
            good = service.cache.lookup(frames["c"]["key"])
            service.cache.put(frames["c"]["key"], dataclasses.replace(
                good, certificate=dataclasses.replace(
                    good.certificate,
                    digest="0" * len(good.certificate.digest)),
            ))
            healed = serve("c")
            assert healed.cached is False
            assert verify_certificate(healed.value.certificate).ok
            assert service.cache.stats().rejected == 1
            assert serve("c").cached is True
        finally:
            worker.close()


# -- the sharded service, real processes -------------------------------------


@pytest.fixture(scope="module")
def sharded():
    with ShardedService(shards=2, workers_per_shard=2,
                        journal=sharded_journal()) as service:
        yield service


class TestShardedRouting:
    def test_mixed_workload_correct_and_typed(self, sharded):
        decomposed = sharded.request(DecomposeRequest(automaton()),
                                     timeout=60)
        assert decomposed.value.verify_exact()
        classified = sharded.request(
            ClassifyRequest(parse("F a"), alphabet=ALPHABET), timeout=60
        )
        assert classified.value.name == "LIVENESS"
        checked = sharded.request(
            CheckRequest(parse("a U b"), alphabet=ALPHABET), timeout=60
        )
        assert checked.value is True

    def test_affinity_repeat_request_hits_cache(self, sharded):
        request = DecomposeRequest(parse("G (a -> F b)"), alphabet=ALPHABET)
        assert sharded.request(request, timeout=60).cached is False
        again = sharded.request(
            DecomposeRequest(parse("G (a -> F b)"), alphabet=ALPHABET),
            timeout=60,
        )
        assert again.cached is True  # same key → same shard → its cache

    def test_atom_swap_subjects_do_not_alias_across_the_wire(self, sharded):
        """PR-4 regression against ShardedTransport: boolean_lattice(2)'s
        atom-swap automorphism makes frozenset({0}) and frozenset({1})
        isomorphic but distinct — they must not share a cache line even
        after a pickle round-trip through a worker process."""
        lat = boolean_lattice(2)
        closure = LatticeClosure.identity(lat)
        first = sharded.request(
            DecomposeRequest(frozenset({0}), closure=closure), timeout=60
        )
        second = sharded.request(
            DecomposeRequest(frozenset({1}), closure=closure), timeout=60
        )
        assert first.key != second.key
        assert not second.cached
        assert first.value.element == frozenset({0})
        assert second.value.element == frozenset({1})
        assert second.value.verify()

    def test_certify_crosses_the_wire(self, sharded):
        result = sharded.request(
            DecomposeRequest(automaton("G a | F b"), certify=True),
            timeout=60,
        )
        assert result.value.certificate is not None
        assert result.key.startswith("decompose+cert:")

    def test_trace_ids_are_router_minted(self, sharded):
        reply = sharded.submit(DecomposeRequest(automaton("F (a & b)")),
                               timeout=60)
        assert reply.request_id.startswith("r")
        reply.result()

    def test_concurrent_clients_no_lost_or_duplicated_replies(self, sharded):
        """The 8-client acceptance test, rerun over the sharded tier."""
        formulas = [f"G (a -> F b) & {'X ' * i}b" for i in range(8)]
        results: dict[int, object] = {}
        errors: list[Exception] = []

        def hammer(index):
            try:
                value = sharded.request(
                    ClassifyRequest(parse(formulas[index]),
                                    alphabet=ALPHABET),
                    timeout=120,
                ).value
                results[index] = value
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not errors
        assert sorted(results) == list(range(8))  # one reply each, no loss

    def test_aggregate_cache_stats_sum_shards(self, sharded):
        view = sharded.cache
        per_shard = view.stats_by_shard()
        assert set(per_shard) == {0, 1}
        totals = view.stats()
        assert totals.hits == sum(s.hits for s in per_shard.values())
        assert totals.misses == sum(s.misses for s in per_shard.values())
        assert totals.entries == sum(s.entries for s in per_shard.values())
        assert totals.maxsize == sum(s.maxsize for s in per_shard.values())

    def test_readiness_reports_every_shard(self, sharded):
        state = sharded.readiness()
        assert state["ready"] is True
        assert state["n_shards"] == 2 and state["ready_shards"] == 2
        assert [row["shard"] for row in state["shards"]] == [0, 1]
        assert all(row["pid"] > 0 for row in state["shards"])

    def test_ops_server_routes_over_sharded_service(self, sharded):
        with OpsServer(sharded, journal=None) as ops:
            with urllib.request.urlopen(ops.url + "/readyz",
                                        timeout=10) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["ready"] is True
            with urllib.request.urlopen(ops.url + "/debug/cache",
                                        timeout=10) as resp:
                payload = json.loads(resp.read())
        assert set(payload["shards"]) == {"0", "1"}
        assert payload["stats"]["hits"] == sum(
            shard["hits"] for shard in payload["shards"].values()
        )


class TestShardedLifecycle:
    def test_submit_after_shutdown_is_service_closed(self):
        service = ShardedService(shards=1, journal=sharded_journal())
        service.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit(DecomposeRequest(parse("G a"), alphabet=ALPHABET))

    def test_warm_source_replicates_to_every_shard(self):
        workload = {"version": 1, "requests": [
            {"kind": "decompose", "formula": "G (a & b)",
             "alphabet": ["a", "b"]},
            {"kind": "classify", "formula": "F (a | b)",
             "alphabet": ["a", "b"]},
        ]}
        with ShardedService(shards=2, warm_source=workload,
                            journal=sharded_journal()) as service:
            hot = service.request(
                DecomposeRequest(parse("G (a & b)"), alphabet=ALPHABET),
                timeout=60,
            )
            assert hot.cached is True  # whichever shard owns it, it's warm
            also_hot = service.request(
                ClassifyRequest(parse("F (a | b)"), alphabet=ALPHABET),
                timeout=60,
            )
            assert also_hot.cached is True

    def test_client_facade_over_sharded_transport(self):
        with Client.sharded(shards=2,
                            journal=sharded_journal()) as client:
            reply = client.decompose(automaton("a U (b & X a)"),
                                     timeout=60)
            assert reply.value.verify_exact()
            assert reply.request_id
            assert client.readiness()["ready"] is True
        # close() shut the owned router down
        with pytest.raises(ServiceClosed):
            client.decompose(automaton())


class TestShardDeath:
    def test_idempotent_request_redelivered_after_crash(self):
        """Kill a worker mid-flight (chaos hook suppresses the reply and
        dies hard); the router must respawn the shard and redeliver, and
        the caller sees exactly one successful reply."""
        journal = sharded_journal()
        with ShardedService(
            shards=1, workers_per_shard=1, max_deliveries=3,
            worker_args=("--chaos-exit-after", "2"),
            health_interval=0.2, journal=journal,
        ) as service:
            first_pid = service.shard_pids()[0]
            ok = service.request(DecomposeRequest(parse("G a"),
                                                  alphabet=ALPHABET),
                                 timeout=60)
            assert ok.value is not None  # completion 1 of 2: survives
            # completion 2 triggers the crash: reply suppressed, process
            # dies, router respawns and redelivers
            recovered = service.request(
                DecomposeRequest(parse("F b"), alphabet=ALPHABET),
                timeout=120,
            )
            assert recovered.value is not None
            assert service.shard_pids()[0] != first_pid
        names = [event.name for event in journal.events()]
        assert "shard.exit" in names
        assert "shard.redeliver" in names
        assert "shard.spawn" in names

    def test_a_redelivered_flight_carries_its_key(self, monkeypatch):
        """Both deliveries of a request caught in a shard death write a
        frame carrying the request's cache key."""
        written = []
        real_send = router_module._Shard.send

        def send(shard, frame_id, entry, frame):
            if isinstance(entry, router_module._Flight):
                written.append(read_frame(io.BytesIO(frame)))
            return real_send(shard, frame_id, entry, frame)

        monkeypatch.setattr(router_module._Shard, "send", send)
        request = DecomposeRequest(parse("F b"), alphabet=ALPHABET)
        with ShardedService(
            shards=1, workers_per_shard=1, max_deliveries=3,
            worker_args=("--chaos-exit-after", "2"),
            health_interval=0.2, journal=sharded_journal(),
        ) as service:
            service.request(DecomposeRequest(parse("G a"), alphabet=ALPHABET),
                            timeout=60)
            recovered = service.request(request, timeout=120)
        assert recovered.key == cache_key(request)
        deliveries = [frame for frame in written
                      if frame["id"] == written[-1]["id"]]
        assert len(deliveries) == 2
        assert all(frame["key"] == cache_key(request) for frame in deliveries)

    def test_inflight_certify_fails_closed_at_most_once(self):
        """A certify request caught in a shard death must NOT be re-run:
        the caller gets ServiceClosed naming the at-most-once rule."""
        with ShardedService(
            shards=1, workers_per_shard=1,
            worker_args=("--chaos-exit-after", "1"),
            health_interval=0.2, journal=sharded_journal(),
        ) as service:
            with pytest.raises(ServiceClosed, match="at-most-once"):
                service.request(
                    DecomposeRequest(automaton(), certify=True),
                    timeout=60,
                )

    def test_burst_over_dying_shards_every_request_terminal(self):
        """Kill workers repeatedly mid-burst: every idempotent request
        must still resolve exactly once — successfully (redelivery) —
        and the tier must keep serving afterwards."""
        journal = sharded_journal()
        with ShardedService(
            shards=2, workers_per_shard=2, max_deliveries=6,
            worker_args=("--chaos-exit-after", "4"),
            health_interval=0.2, journal=journal,
        ) as service:
            replies = [
                service.submit(
                    ClassifyRequest(parse(f"G (a -> {'X ' * i}b)"),
                                    alphabet=ALPHABET),
                    timeout=180,
                )
                for i in range(10)
            ]
            values = [reply.result() for reply in replies]
            assert len(values) == 10
            assert all(v.value is not None for v in values)
            # the chaos hook really fired
            assert any(e.name == "shard.exit" for e in journal.events())
            # and the tier still serves
            after = service.request(
                ClassifyRequest(parse("F a"), alphabet=ALPHABET),
                timeout=120,
            )
            assert after.value.name == "LIVENESS"
