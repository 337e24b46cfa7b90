"""The sharded router's thread model under stress: readiness means "can
answer", the health probe kills and replaces an unresponsive shard, and
shutdown racing live submitters leaves every reply terminal and every
worker process gone."""

import os
import signal
import sys
import threading
import time

import pytest

from repro.analysis import classify_formula
from repro.ltl import parse
from repro.obs.metrics import REGISTRY
from repro.ops.journal import EventJournal
from repro.service import ClassifyRequest, ServiceClosed, ShardedService
from repro.service.handlers import request_keys

ALPHABET = frozenset({"a", "b"})

#: Seconds each worker of :class:`_SlowStartService` sleeps before it
#: imports anything.
START_DELAY = 1.0


class _SlowStartService(ShardedService):
    """Every worker (respawns included) starts ``START_DELAY`` late."""

    def _worker_command(self, index):
        args = super()._worker_command(index)[3:]  # drop "-m <module>"
        return [
            sys.executable, "-c",
            f"import sys, time; time.sleep({START_DELAY}); "
            "from repro.service.sharded.worker import main; "
            "sys.exit(main(sys.argv[1:]))",
            *args,
        ]


def _deaths(shard: int) -> float:
    family = REGISTRY.counter(
        "repro_service_sharded_deaths_total",
        "worker processes that exited while routable, by shard",
        ("shard",),
    )
    return family.labels(shard=str(shard)).value


def _expected(text: str):
    return classify_formula(parse(text), ALPHABET)


class TestReadinessMeansCanAnswer:
    def test_slow_workers_hold_the_constructor_and_the_respawn(self):
        started = time.perf_counter()
        with _SlowStartService(
            shards=3, health_interval=0.2,
            journal=EventJournal(min_level="debug"),
        ) as service:
            elapsed = time.perf_counter() - started
            state = service.readiness()
            assert state["ready"] is True and state["ready_shards"] == 3
            assert elapsed >= START_DELAY
            # shards start together: the wait does not grow with `shards`
            assert elapsed < 3 * START_DELAY
            # routable right away, no polling
            reply = service.request(
                ClassifyRequest(parse("G a"), alphabet=ALPHABET), timeout=60
            )
            assert reply.value is _expected("G a")

            victim = service.shard_pids()[0]
            killed = time.perf_counter()
            os.kill(victim, signal.SIGKILL)
            while True:
                row = service.readiness()["shards"][0]
                if row["generation"] == 2 and row["ready"]:
                    break
                assert time.perf_counter() - killed < 60, row
                time.sleep(0.01)
            assert time.perf_counter() - killed >= START_DELAY
            assert service.readiness()["ready"] is True


class TestHealthProbeKill:
    def test_stopped_shard_is_killed_respawned_and_redelivered(self):
        journal = EventJournal(min_level="debug")
        text = "G (a -> X X b)"
        request = ClassifyRequest(parse(text), alphabet=ALPHABET)
        with ShardedService(shards=2, health_interval=0.1,
                            journal=journal) as service:
            owner = service.ring.shard_for(request_keys(request)[1])
            victim = service.shard_pids()[owner]
            deaths = _deaths(owner)
            os.kill(victim, signal.SIGSTOP)
            try:
                started = time.perf_counter()
                reply = service.submit(request, timeout=60)
                result = reply.result()
                waited = time.perf_counter() - started
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert result.value is _expected(text)
            assert waited < 30
            assert service.shard_pids()[owner] != victim
            assert _deaths(owner) == deaths + 1
            with pytest.raises(ProcessLookupError):
                os.kill(victim, 0)
        names = [event.name for event in journal.events()]
        assert "shard.unresponsive" in names
        assert "shard.redeliver" in names


class TestShutdownRace:
    def test_submitters_racing_shutdown_all_end_terminal(self):
        service = ShardedService(shards=2, journal=None)
        pids = service.shard_pids()
        texts = ["G a", "F b", "a U b", "G (a -> X b)"]
        replies, errors = [], []
        record = threading.Lock()
        go = threading.Barrier(9)

        def submitter(index):
            request = ClassifyRequest(parse(texts[index % len(texts)]),
                                      alphabet=ALPHABET)
            go.wait()
            while True:
                try:
                    reply = service.submit(request)
                except ServiceClosed:
                    return
                except Exception as exc:
                    errors.append(exc)
                    return
                with record:
                    replies.append(reply)
                try:
                    reply.result(timeout=30)
                except ServiceClosed:
                    pass
                except Exception as exc:
                    errors.append(exc)
                    return

        def closer():
            go.wait()
            time.sleep(0.3)
            service.shutdown()

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(8)]
        threads.append(threading.Thread(target=closer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per second
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert replies
        for reply in replies:
            assert reply.done()
            try:
                assert reply.result(timeout=0).value is not None
            except ServiceClosed:
                pass
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
