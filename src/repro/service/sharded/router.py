"""The front-end: consistent-hash routing over worker shards.

:class:`ShardedService` spawns ``shards`` worker processes (each one
:mod:`repro.service.sharded.worker` — today's ``AnalysisService`` behind
the wire protocol) and routes every request by its placement key — the
canonical cache key, or a monitor's policy key — over a
:class:`~repro.service.sharded.ring.HashRing`.  Both keys come from one
:func:`~repro.service.handlers.request_keys` call, and the request frame
carries the cache key, so a shard serves a hit without decoding the
request or building its key again.  The design is
shared-nothing: no shard ever talks to another, each owns its slice of
the keyspace, and the router owns *only* routing, health and
aggregation.

Delivery semantics (DESIGN.md §13): when a shard dies mid-request the
router respawns it (warm-started from the recorded workload, if any).
**Idempotent requests** — everything except ``certify=True`` decomposes —
are redelivered, *at-least-once* and at most ``max_deliveries`` times:
analyses are pure, so a duplicate compute is wasted work, never a wrong
answer.  **Certify requests** are *at-most-once*: issuance is priced work
a caller may bill, so one caught in a shard death fails with
:class:`~repro.service.requests.ServiceClosed` and the caller decides
whether to retry.

Threading model — plain threads, no event loop.  A caller's thread
encodes its request, then registers the flight in the chosen shard's
table and writes the whole frame to its stdin, both under the shard's
``lock``.  One reader thread per shard owns its stdout, resolves what it
removes from the table, and on EOF runs the exit path (respawn,
warm-start, redelivery, certify fail-closed).  One health thread probes
ready shards with ``readyz`` (three misses → kill) and fails parked
flights past their grace window.  A shard is ready only once it has
answered a ``ping``; ``submit()`` never blocks on readiness — with no
shard routable the flight is parked (the service ``_lock`` guards the
parked list and ``closed``) until one is.  Whoever removes a flight
from a table or the parked list completes it: one reply per caller.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures import wait as wait_futures
from pathlib import Path

from repro.obs.metrics import REGISTRY
from repro.obs.trace import mint_request_id
from repro.ops.journal import INFO, JOURNAL, WARN, EventJournal

from repro.service.cache import ResultCacheStats
from repro.service.handlers import request_keys
from repro.service.requests import (
    Request,
    ServiceClosed,
    ServiceOverloaded,
    ServiceResult,
    ServiceTimeout,
)
from repro.service.warmup import load_workload_data, parse_workload
from repro.service.wire import (
    WireError,
    decode_error,
    decode_result,
    encode_request,
    pack_frame,
    read_frame,
)

from .ring import HashRing

__all__ = ["ShardReply", "ShardedService"]

_REQUESTS = REGISTRY.counter(
    "repro_service_sharded_requests_total",
    "requests routed through the sharded tier, by shard and outcome",
    ("shard", "outcome"),
)
_DEATHS = REGISTRY.counter(
    "repro_service_sharded_deaths_total",
    "worker processes that exited while routable, by shard",
    ("shard",),
)
_REDELIVERED = REGISTRY.counter(
    "repro_service_sharded_redelivered_total",
    "idempotent in-flight requests redelivered after a shard death",
)

#: How long a parked request waits for *any* shard to become routable
#: before it fails with ServiceOverloaded (covers the respawn window).
DISPATCH_GRACE_SECONDS = 5.0

#: Respawn attempts per shard death before its in-flight work is failed.
MAX_RESPAWNS = 3


class _Flight:
    """One routed request: its wire request, its cache key and its shard
    preference on ``ring``, plus the caller's future."""

    __slots__ = ("request_id", "request", "wire", "key", "future",
                 "deadline", "origin", "preference", "idempotent",
                 "deliveries", "shard", "grace_end")

    def __init__(self, request, deadline, origin, ring: HashRing):
        self.request_id = mint_request_id()
        self.request = request
        self.wire = encode_request(request)
        try:
            self.key, placement = request_keys(request)
        except Exception:
            # Key construction can reject a malformed request (e.g. a
            # subject outside its lattice); route it anyway and let the
            # shard raise the real, helpful error on compute.
            self.key = placement = None
        self.future: Future = Future()
        self.deadline = deadline
        self.origin = origin
        self.preference = (
            None if placement is None else ring.preference(placement)
        )
        self.idempotent = not getattr(request, "certify", False)
        self.deliveries = 0
        self.shard = None
        self.grace_end = None

    def frame(self) -> bytes:
        payload = {"id": self.request_id, "op": "request",
                   "request": self.wire, "origin": self.origin,
                   "trace_id": self.request_id}
        if self.key is not None:
            # the shard serves a hit from this key without decoding
            payload["key"] = self.key
        if self.deadline is not None:
            payload["timeout"] = max(0.0, self.deadline - time.perf_counter())
        return pack_frame(payload)


class _Shard:
    """One worker process as the router sees it.

    ``lock`` guards ``open``, ``ready`` and the frame-id tables
    (``inflight`` for requests, ``control`` for control futures) and is
    held across every write to ``proc.stdin``.  ``misses`` and ``remote``
    belong to the health thread, ``replied`` (the shard's ``ok`` reply
    counter, resolved on its first reply) to the reader thread."""

    __slots__ = ("index", "generation", "proc", "lock", "open", "ready",
                 "inflight", "control", "remote", "misses", "reader",
                 "replied")

    def __init__(self, index: int, generation: int, proc):
        self.index = index
        self.generation = generation
        self.proc = proc
        self.lock = threading.Lock()
        self.open = True
        self.ready = False
        self.inflight: dict[str, _Flight] = {}
        self.control: dict[str, Future] = {}
        self.remote: dict = {}
        self.misses = 0
        self.reader: threading.Thread | None = None
        self.replied = None

    def send(self, frame_id: str, entry, frame: bytes) -> bool:
        """Register ``entry`` and write ``frame``; False (nothing
        registered) once the shard has closed.  A failed write leaves the
        entry registered: the pipe is broken, so the reader sees EOF and
        the exit path takes the entry over."""
        table = self.inflight if isinstance(entry, _Flight) else self.control
        with self.lock:
            if not self.open:
                return False
            table[frame_id] = entry
            try:
                self.proc.stdin.write(frame)
                self.proc.stdin.flush()
            except (OSError, ValueError):
                pass
            return True

    def take(self, frame_id):
        with self.lock:
            return (self.inflight.pop(frame_id, None)
                    or self.control.pop(frame_id, None))

    def mark_ready(self) -> bool:
        with self.lock:
            self.ready = self.open
            return self.ready

    def close(self) -> tuple[bool, list[_Flight], list[Future]]:
        """Stop accepting frames; returns whether the shard was ready and
        the flights and control futures still registered."""
        with self.lock:
            ready, self.ready, self.open = self.ready, False, False
            flights = list(self.inflight.values())
            controls = list(self.control.values())
            self.inflight.clear()
            self.control.clear()
            try:
                self.proc.stdin.close()
            except (OSError, ValueError):
                pass
        return ready, flights, controls


class ShardReply:
    """A routed request's reply slot (deadline semantics match
    :class:`~repro.service.server.PendingReply`); ``request_id`` is the
    trace id the request carries shard-side."""

    __slots__ = ("request", "request_id", "deadline", "_future")

    def __init__(self, request: Request, request_id: str,
                 deadline: float | None, future: Future):
        self.request = request
        self.request_id = request_id
        self.deadline = deadline
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Wait for the reply — at most ``timeout`` seconds and never
        past the request's own deadline."""
        remaining = timeout
        if self.deadline is not None:
            until_deadline = self.deadline - time.perf_counter()
            remaining = (
                until_deadline if remaining is None
                else min(remaining, until_deadline)
            )
        if remaining is not None and remaining <= 0 and not self.done():
            raise ServiceTimeout(
                f"{self.request.kind} request deadline expired"
            )
        try:
            return self._future.result(remaining)
        except _FutureTimeout:
            raise ServiceTimeout(
                f"no {self.request.kind} reply within {remaining:.3f}s"
            ) from None


class _AggregateCacheView:
    """The router's ``/debug/cache`` surface: per-shard stats summed.

    Duck-compatible with :class:`~repro.service.cache.ResultCache` where
    the ops plane needs it (``stats()``/``lines()``), plus
    :meth:`stats_by_shard` so the endpoint can show the breakdown —
    without it, per-process counters silently under-report the tier's
    real hit rate."""

    __slots__ = ("_router",)

    def __init__(self, router: "ShardedService"):
        self._router = router

    def _fetch(self) -> dict[int, dict]:
        return self._router._broadcast("cache_stats")

    def stats_by_shard(self) -> dict[int, ResultCacheStats]:
        return {
            index: ResultCacheStats(**{
                key: value
                for key, value in payload["stats"].items()
                if key != "hit_ratio"
            })
            for index, payload in sorted(self._fetch().items())
        }

    def stats(self) -> ResultCacheStats:
        totals = dict.fromkeys(
            ("hits", "misses", "rejected", "evictions", "entries",
             "maxsize", "bytes_estimate"), 0,
        )
        for stats in self.stats_by_shard().values():
            for field in totals:
                totals[field] += getattr(stats, field)
        return ResultCacheStats(**totals)

    def lines(self) -> list[dict]:
        merged = []
        for index, payload in sorted(self._fetch().items()):
            for line in payload["lines"]:
                line["shard"] = index
                merged.append(line)
        return merged


class ShardedService:
    """N analysis shards behind one consistent-hash router.

    The constructor returns once every shard has answered a ``ping``
    (shards start in parallel), so a new service is routable at once.

    Parameters
    ----------
    shards:
        Worker process count (the ring size; fixed for the service's
        lifetime).
    workers_per_shard / max_pending_per_shard / cache_size /
    verify_on_hit:
        Forwarded to each shard's :class:`AnalysisService`.
    default_timeout:
        Deadline applied to requests submitted without ``timeout=``.
    warm_source:
        A recorded JSON workload (path, JSON string, or dict) replayed
        into *every* shard at spawn — including respawns after a shard
        death, so a replacement worker starts with a warm cache.
    max_deliveries:
        Delivery bound per idempotent request (first attempt included).
    health_interval:
        Seconds between ``readyz`` probes per shard; a shard that misses
        three consecutive probes is killed and respawned.
    journal:
        Lifecycle events (spawn/death/redelivery) go here.
    worker_args:
        Extra argv appended to each worker command (failure-injection
        hooks for the chaos tests).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        workers_per_shard: int = 2,
        max_pending_per_shard: int = 64,
        cache_size: int = 512,
        verify_on_hit: bool = False,
        default_timeout: float | None = None,
        warm_source=None,
        max_deliveries: int = 2,
        health_interval: float = 0.5,
        vnodes: int = 64,
        journal: EventJournal | None = JOURNAL,
        worker_args: tuple = (),
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_deliveries < 1:
            raise ValueError("max_deliveries must be >= 1")
        self.n_shards = shards
        self.workers_per_shard = workers_per_shard
        self.max_pending_per_shard = max_pending_per_shard
        self.cache_size = cache_size
        self.verify_on_hit = verify_on_hit
        self.default_timeout = default_timeout
        self.max_deliveries = max_deliveries
        self.health_interval = health_interval
        self.journal = journal
        self.worker_args = tuple(worker_args)
        self.ring = HashRing(shards, vnodes=vnodes)
        self._warm_data = (
            None if warm_source is None else load_workload_data(warm_source)
        )
        self._ids = itertools.count(1)
        self._rr = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._parked: list[_Flight] = []
        self._wake = threading.Event()
        self._shards: list[_Shard | None] = [None] * shards
        self._health_thread: threading.Thread | None = None
        try:
            self._start(range(shards))
        except BaseException:
            self.shutdown(wait=False)
            raise
        self._health_thread = threading.Thread(
            target=self._health, name="repro-shard-health", daemon=True
        )
        self._health_thread.start()

    # -- journal plumbing ----------------------------------------------------

    def _emit(self, name: str, level: int = INFO, **fields) -> None:
        if self.journal is not None:
            self.journal.emit(name, level, **fields)

    # -- spawning ------------------------------------------------------------

    def _worker_command(self, index: int) -> list[str]:
        command = [
            sys.executable, "-m", "repro.service.sharded.worker",
            "--shard", str(index),
            "--workers", str(self.workers_per_shard),
            "--max-pending", str(self.max_pending_per_shard),
            "--cache-size", str(self.cache_size),
        ]
        if self.verify_on_hit:
            command.append("--verify-on-hit")
        command.extend(self.worker_args)
        return command

    def _worker_env(self) -> dict:
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        return env

    def _launch(self, index: int) -> _Shard:
        """Start one worker process and its reader thread (not ready)."""
        previous = self._shards[index]
        proc = subprocess.Popen(
            self._worker_command(index), env=self._worker_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        generation = 1 if previous is None else previous.generation + 1
        shard = _Shard(index, generation, proc)
        # Publish first, then check: shutdown sets ``closed`` before it
        # lists the shards, so either it stops this shard or we do.
        self._shards[index] = shard
        shard.reader = threading.Thread(
            target=self._read, args=(shard,),
            name=f"repro-shard-{index}-reader", daemon=True,
        )
        shard.reader.start()
        if self.closed:
            proc.kill()  # the reader reaps it and closes the pipes
            raise ServiceClosed("sharded service is shut down")
        return shard

    def _start(self, indices) -> None:
        """Spawn shards together, wait until every one has answered a
        ``ping`` (or replayed the warm-start workload), then make them
        routable.  On failure the new processes are killed."""
        shards = [self._launch(index) for index in indices]
        warm = self._warm_data
        op, extra = ("ping", None) if warm is None else (
            "warm_start", {"workload": warm})
        try:
            answers = self._control_all(shards, op, extra, timeout=120.0)
            for answer in answers:
                if isinstance(answer, BaseException):
                    raise answer
            for shard in shards:
                if not shard.mark_ready():
                    raise ServiceClosed(f"shard {shard.index} exited at start")
        except BaseException:
            for shard in shards:
                shard.close()  # so its exit path neither counts nor respawns
                shard.proc.kill()
            raise
        # After the flips: a flight parked before them is taken here, one
        # parked after them saw a ready shard under the lock instead.
        with self._lock:
            parked, self._parked = self._parked, []
        for shard, answer in zip(shards, answers):
            if warm is not None:
                self._emit("shard.warm_start", shard=shard.index,
                           replayed=answer)
            self._emit("shard.spawn", shard=shard.index, pid=shard.proc.pid,
                       generation=shard.generation)
        for flight in parked:
            self._route(flight)

    # -- the wire ------------------------------------------------------------

    def _control_all(self, shards, op: str, extra: dict | None = None,
                     timeout: float = 5.0) -> list:
        """One control frame per shard; their answers (or errors) in order."""
        sent = []
        for shard in shards:
            frame_id, future = f"c-{next(self._ids)}", Future()
            frame = pack_frame({"id": frame_id, "op": op, **(extra or {})})
            if not shard.send(frame_id, future, frame):
                future.set_exception(ServiceClosed(f"shard {shard.index} exited"))
            sent.append((shard, frame_id, future))
        wait_futures([future for _, _, future in sent], timeout)
        for shard, frame_id, future in sent:
            if not future.done() and shard.take(frame_id) is future:
                future.set_exception(ServiceTimeout(
                    f"shard {shard.index} did not answer {op!r} within "
                    f"{timeout:g}s"
                ))
        return [future.exception() or future.result() for _, _, future in sent]

    def _read(self, shard: _Shard) -> None:
        """The shard's reader thread: resolve replies until EOF."""
        stdout = shard.proc.stdout
        try:
            while (payload := read_frame(stdout)) is not None:
                self._on_frame(shard, payload)
        except (WireError, OSError, ValueError):
            pass  # a torn or unreadable stream ends like EOF
        shard.proc.wait()
        stdout.close()
        self._on_exit(shard)

    def _on_frame(self, shard: _Shard, payload: dict) -> None:
        entry = shard.take(payload.get("id"))
        ok = payload.get("ok")
        if isinstance(entry, Future):
            if ok:
                entry.set_result(payload.get("value"))
            else:
                entry.set_exception(decode_error(payload.get("error", {})))
        elif entry is not None:
            try:
                if not ok:
                    raise decode_error(payload.get("error", {}))
                result = decode_result(payload["result"], entry.request)
            except Exception as exc:  # noqa: BLE001 — surfaced on the caller's future
                self._fail([entry], exc)
                return
            replied = shard.replied
            if replied is None:
                replied = shard.replied = _REQUESTS.labels(
                    shard=str(shard.index), outcome="ok")
            replied.add()
            entry.future.set_result(result)

    # -- death, respawn, redelivery -----------------------------------------

    def _on_exit(self, shard: _Shard) -> None:
        routable, orphans, controls = shard.close()
        for future in controls:
            future.set_exception(ServiceClosed(f"shard {shard.index} exited"))
        if self.closed or not routable:
            # (a shard that never answered holds no flights; the spawn
            # that started it retries)
            self._fail(orphans, ServiceClosed("sharded service is shut down"))
            return
        _DEATHS.labels(shard=str(shard.index)).add()
        self._emit("shard.exit", WARN, shard=shard.index, pid=shard.proc.pid,
                   returncode=shard.proc.returncode, orphaned=len(orphans))
        redeliverable = []
        for flight in orphans:
            if flight.idempotent and flight.deliveries < self.max_deliveries:
                redeliverable.append(flight)
            else:
                self._fail([flight], ServiceClosed(
                    f"shard {shard.index} died mid-request; not redelivering "
                    "(at-most-once for certify requests, delivery bound "
                    "otherwise)"
                ))
        for attempt in range(MAX_RESPAWNS):
            try:
                self._start([shard.index])
                break
            except Exception as exc:  # journaled; the next attempt runs
                if self.closed:
                    break
                self._emit("shard.respawn_failed", WARN, shard=shard.index,
                           attempt=attempt + 1, error=repr(exc))
                time.sleep(0.2 * (attempt + 1))
        # Without a respawn, routing falls back along the ring (or parks
        # the flight, or fails it once the service is closed).
        for flight in redeliverable:
            if (flight.deadline or float("inf")) <= time.perf_counter():
                self._fail([flight], ServiceTimeout(
                    f"{flight.request.kind} request deadline expired "
                    "during shard respawn"
                ))
                continue
            _REDELIVERED.add()
            self._emit("shard.redeliver", WARN, shard=shard.index,
                       request_id=flight.request_id,
                       delivery=flight.deliveries + 1)
            self._route(flight)

    def _fail(self, flights, error: BaseException) -> None:
        for flight in flights:
            shard = -1 if flight.shard is None else flight.shard
            _REQUESTS.labels(shard=str(shard), outcome="error").add()
            flight.future.set_exception(error)

    def _health(self) -> None:
        """Probe ready shards every ``health_interval`` (three misses →
        kill) and expire parked flights on time, until closed."""
        next_probe = time.perf_counter() + self.health_interval
        while not self.closed:
            self._wake.clear()
            wake_at = min(next_probe, self._expire_parked())
            if time.perf_counter() < next_probe:
                self._wake.wait(max(0.0, wake_at - time.perf_counter()))
                continue
            shards = self._ready_shards()
            answers = self._control_all(
                shards, "readyz", timeout=self.health_interval * 2 + 0.5
            )
            for shard, answer in zip(shards, answers):
                if not isinstance(answer, BaseException):
                    shard.remote, shard.misses = answer, 0
                    continue
                shard.misses += 1
                if shard.misses >= 3 and shard.proc.poll() is None:
                    self._emit("shard.unresponsive", WARN, shard=shard.index,
                               pid=shard.proc.pid, misses=shard.misses)
                    shard.proc.kill()
            next_probe = time.perf_counter() + self.health_interval

    def _expire_parked(self) -> float:
        """Fail parked flights past their grace window; next grace end."""
        now = time.perf_counter()
        with self._lock:
            expired = [f for f in self._parked if f.grace_end <= now]
            self._parked = [f for f in self._parked if f.grace_end > now]
            next_end = min((f.grace_end for f in self._parked),
                           default=float("inf"))
        self._fail(expired, ServiceOverloaded(
            "no shard became routable within the dispatch grace window "
            f"({DISPATCH_GRACE_SECONDS:g}s)"
        ))
        return next_end

    # -- routing -------------------------------------------------------------

    def _ready_shards(self) -> list[_Shard]:
        return [s for s in self._shards if s is not None and s.ready]

    def _pick(self, flight: _Flight) -> _Shard | None:
        if flight.preference is None:
            ready = self._ready_shards()
            return ready[next(self._rr) % len(ready)] if ready else None
        for index in flight.preference:
            shard = self._shards[index]
            if shard is not None and shard.ready:
                return shard
        return None

    def _route(self, flight: _Flight) -> None:
        """Send ``flight`` to its first ready shard, or park it until
        one is ready (never blocks on readiness)."""
        while True:
            shard = self._pick(flight)
            if shard is None:
                with self._lock:
                    # re-check under the lock ``_start`` takes the parked
                    # list with, so a shard made ready meanwhile is seen
                    shard = self._pick(flight)
                    park = shard is None and not self._closed
                    if park:
                        flight.grace_end = min(
                            time.perf_counter() + DISPATCH_GRACE_SECONDS,
                            flight.deadline or float("inf"),
                        )
                        self._parked.append(flight)
                if park:
                    self._wake.set()
                    return
                if shard is None:
                    self._fail([flight], ServiceClosed("sharded service is shut down"))
                    return
            flight.shard = shard.index
            flight.deliveries += 1
            if shard.send(flight.request_id, flight, flight.frame()):
                return
            flight.deliveries -= 1  # the shard closed first: pick again

    # -- the client-facing request path --------------------------------------

    def submit(self, request: Request, *, timeout: float | None = None,
               origin: str = "client") -> ShardReply:
        """Route one request; returns its :class:`ShardReply`.

        Serialization and the request's keys — its cache key, which the
        frame carries, and its placement key — happen here, on the
        caller's thread: a subject the wire cannot carry raises
        :class:`~repro.service.wire.WireError` at submit time, before
        anything is queued.  Never blocks on shard readiness."""
        if not isinstance(request, Request):
            raise TypeError(
                f"submit() takes a Request, not {type(request).__name__!r}"
            )
        if self.closed:
            raise ServiceClosed("sharded service is shut down")
        if timeout is None:
            timeout = self.default_timeout
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        flight = _Flight(request, deadline, origin, self.ring)
        self._route(flight)
        return ShardReply(request, flight.request_id, deadline, flight.future)

    def request(self, request: Request, *, timeout: float | None = None,
                origin: str = "client") -> ServiceResult:
        """Submit and wait: ``submit(...).result()`` in one call."""
        return self.submit(request, timeout=timeout, origin=origin).result()

    def warm_start(self, source) -> int:
        """Fan-out replication: replay a recorded workload into *every*
        shard (shared-nothing caches warm independently), and remember
        it so respawned shards warm-start too.  Returns the number of
        workload requests (each shard replayed all of them)."""
        data = load_workload_data(source)
        requests = parse_workload(data)  # validate before shipping
        self._warm_data = data
        self._broadcast("warm_start", {"workload": data},
                        timeout=120.0, strict=True)
        return len(requests)

    # -- aggregation (the ops surface) ---------------------------------------

    def _broadcast(self, op: str, extra: dict | None = None,
                   timeout: float = 5.0, strict: bool = False) -> dict[int, object]:
        """One control op to every routable shard → ``{index: value}``.
        Unreachable shards are skipped unless ``strict``."""
        shards = self._ready_shards()
        results: dict[int, object] = {}
        for shard, answer in zip(shards,
                                 self._control_all(shards, op, extra, timeout)):
            if isinstance(answer, BaseException):
                if strict:
                    raise answer
                continue
            results[shard.index] = answer
        return results

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def cache(self) -> _AggregateCacheView:
        """The tier-wide cache view (``/debug/cache`` aggregates shards
        here instead of under-reporting one process's counters)."""
        return _AggregateCacheView(self)

    def readiness(self) -> dict:
        """The ``/readyz`` routing contract, tier-wide: routable iff the
        service is open and *every* shard has answered (a request may
        hash to any of them)."""
        rows, pending = [], 0
        for shard in [s for s in self._shards if s is not None]:
            row = {"shard": shard.index, "ready": shard.ready,
                   "pid": shard.proc.pid, "generation": shard.generation,
                   "pending": len(shard.inflight)}
            pending += row["pending"]
            for key in ("pending", "max_pending", "saturation", "workers"):
                if key in shard.remote:
                    row[key] = shard.remote[key]
            rows.append(row)
        ready_shards = sum(1 for row in rows if row["ready"])
        closed = self.closed
        return {
            "ready": not closed and ready_shards == self.n_shards,
            "closed": closed,
            "n_shards": self.n_shards,
            "ready_shards": ready_shards,
            "pending": pending,
            "max_pending": self.max_pending_per_shard * self.n_shards,
            "shards": rows,
        }

    def _shard_rows(self, op: str) -> list[dict]:
        return [
            {**row, "shard": index}
            for index, rows in sorted(self._broadcast(op).items())
            for row in rows
        ]

    def inflight(self) -> list[dict]:
        """The tier-wide live request table, each row tagged with its
        shard, oldest first."""
        return sorted(self._shard_rows("inflight"),
                      key=lambda row: row.get("age_seconds", 0.0),
                      reverse=True)

    def slow_log(self) -> list[dict]:
        """Every shard's retained slow-request entries, shard-tagged."""
        return self._shard_rows("slowlog")

    def snapshot(self) -> dict:
        """The tier dashboard: per-shard snapshots plus summed totals."""
        per_shard = dict(sorted(self._broadcast("snapshot").items()))
        totals: dict[str, float] = {}
        for snap in per_shard.values():
            for key, value in snap.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        totals["n_shards"] = self.n_shards
        totals["shards"] = per_shard
        return totals

    def shard_pids(self) -> list[int]:
        """Current worker pids by shard index (chaos-test surface)."""
        return [shard.proc.pid for shard in self._shards if shard is not None]

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new requests, fail parked ones, stop every shard (with
        ``wait``, in-flight work drains first) and join the threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            parked, self._parked = self._parked, []
        self._emit("router.shutdown", wait=wait)
        self._wake.set()
        self._fail(parked, ServiceClosed("sharded service is shut down"))
        shards = [s for s in self._shards if s is not None]
        self._control_all(shards, "shutdown", timeout=0.5)
        for shard in shards:
            try:
                shard.proc.wait(5.0 if wait else 0.5)
            except subprocess.TimeoutExpired:
                shard.proc.kill()
                shard.proc.wait()
        # Each reader's exit path fails what was still in flight.
        for thread in [s.reader for s in shards] + [self._health_thread]:
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=10.0)

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"ShardedService(shards={self.n_shards}, {state})"
