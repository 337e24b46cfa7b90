"""The concurrent analysis server.

:class:`AnalysisService` is the serving-shaped front of the whole
reproduction: clients submit typed requests (:mod:`.requests`), a
bounded admission gate keeps the in-flight set finite (full ⇒
:class:`~repro.service.requests.ServiceOverloaded` at submit time,
never a silent block), and a canonical-key LRU (:mod:`.cache`) answers
repeats — including repeats up to state renaming — without recomputing.
A repeat is answered on the submitting thread: ``submit()`` builds the
key and reads the cache itself, and on a hit returns a reply that holds
its result — no future, no second span, and metric children resolved
once per service.  The shared :class:`~repro.rv.pool.WorkerPool` runs
only the requests with work to do — misses, uncacheable requests and
certificate replays — and they carry their key with them.

Graceful degradation, in order of preference:

* **overload** — the queue bound rejects new work at the door;
* **timeout** — a per-request deadline bounds how long a caller waits:
  expired-before-compute requests are never computed, and
  :meth:`PendingReply.result` stops waiting at the deadline (the
  computation itself is not preempted — Python threads can't be — so a
  late result still lands in the cache for the next asker);
* **uncacheable** — subjects the canonicalizer gives up on are computed
  uncached rather than risking a collision.

Observability is two-plane.  Metrics (:mod:`repro.obs`): request and
outcome counters, cache hit/miss counters, an in-flight gauge, per-kind
latency histograms.  Spans: every admitted request is a
:class:`~repro.obs.trace.RequestContext` — the root span, carrying a
trace id, deadline and origin — whose phases (``compute``, ``queue``,
``verify``) are its child spans.  The request is current while it is
dispatched, so the worker pool's context copy carries it into handler
compute and every kernel :class:`~repro.obs.profile.PhaseTimer` span
below it is charged to *this request* as a subphase.  A plain hit runs
nothing inside its request: its one ``compute`` phase is charged to the
ledger directly and the request is closed without becoming current.
The ops plane (:mod:`repro.ops`) reads those records: the live
in-flight table (:meth:`AnalysisService.inflight`) shows each request's
phase breakdown mid-flight, requests slower than ``slow_threshold`` land
in a retained slow-log with their full phase accounting, and every
lifecycle edge
(admitted / shed / timed out / done, cache outcome, certificate
verdict) is journaled with the request id as correlation key.  While
:data:`~repro.obs.trace.RECORDER` records, the same spans form the
request's tree in the exported trace.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from contextlib import nullcontext
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.obs.metrics import REGISTRY
from repro.obs.trace import RequestContext, Span

from repro.ops.journal import DEBUG, INFO, JOURNAL, WARN, EventJournal
from repro.rv.pool import WorkerPool

from . import handlers
from .cache import MISS, ResultCache
from .requests import (
    Request,
    ServiceClosed,
    ServiceOverloaded,
    ServiceResult,
    ServiceTimeout,
)
from .wire import RequestFrame, WireError

#: Serving observability (naming per DESIGN.md: repro_<pkg>_<name>_<unit>).
_REQUESTS = REGISTRY.counter(
    "repro_service_requests_total",
    "requests completed, by kind and outcome (ok/error/timeout)",
    ("kind", "outcome"),
)
_REJECTED = REGISTRY.counter(
    "repro_service_rejected_total",
    "requests refused at admission, by kind and cause (overload/closed)",
    ("kind", "cause"),
)
_CACHE_EVENTS = REGISTRY.counter(
    "repro_service_cache_events_total",
    "memo-LRU outcomes per computed request "
    "(hit/miss/uncacheable/rejected)",
    ("kind", "event"),
)
_TIMEOUTS = REGISTRY.counter(
    "repro_service_timeouts_total", "request deadlines seen expired", ("kind",)
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_service_queue_depth_count", "requests admitted but not yet finished"
)
_LATENCY = REGISTRY.histogram(
    "repro_service_request_seconds",
    "submit→compute-done wall time per request",
    ("kind",),
)
_SLOW = REGISTRY.counter(
    "repro_service_slow_requests_total",
    "requests that exceeded the slow-log threshold",
    ("kind",),
)

#: Retained slow-log entries (oldest evicted first).
SLOW_LOG_SIZE = 128

_LOGGER = logging.getLogger(__name__)

#: Stands in for a phase span when the request has no context.
_NO_SPAN = nullcontext()


class PendingReply:
    """One submitted request's reply slot (a future with deadline
    semantics).

    A reply ``submit()`` resolved itself — a cache hit, or a request
    whose key could not be built — holds its result or its error; one
    handed to the worker pool holds the pool's future.  Both behave
    alike: ``result()`` returns the result or re-raises the error, and
    :meth:`add_done_callback` runs at once on a resolved reply.

    ``context`` is the request's :class:`RequestContext` (``None`` when
    the service runs with ``track_inflight=False``) — poll
    ``reply.context.phases()`` mid-flight for the same breakdown
    ``/debug/inflight`` serves.  ``request`` is what was submitted: a
    shard's :class:`~repro.service.wire.RequestFrame` until the service
    decodes it to compute."""

    __slots__ = ("request", "deadline", "context", "_future", "_result",
                 "_error", "_journal")

    def __init__(self, request: Request, deadline: float | None,
                 context: RequestContext | None = None,
                 journal: EventJournal | None = None):
        self.request = request
        self.deadline = deadline
        self.context = context
        self._future: Future | None = None
        self._result: ServiceResult | None = None
        self._error: BaseException | None = None
        self._journal = journal

    def done(self) -> bool:
        future = self._future
        return future is None or future.done()

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once the reply resolves — from whichever
        thread finished the computation, or at once on the calling
        thread when it already has.  This is the push-style completion
        hook the sharded tier's worker dispatcher uses to stream reply
        frames without parking a thread per request.  An exception from
        ``fn`` is logged and swallowed, as :mod:`concurrent.futures`
        does, so callbacks must not rely on raising."""
        future = self._future
        if future is not None:
            future.add_done_callback(lambda _future: fn(self))
            return
        try:
            fn(self)
        except Exception:  # noqa: BLE001 — the future protocol's contract
            _LOGGER.exception("exception calling callback for %r", self)

    def _note_timeout(self, detail: str) -> None:
        _TIMEOUTS.labels(kind=self.request.kind).add()
        if self._journal is not None:
            self._journal.emit(
                "service.request_timeout", WARN,
                request_id=self.context.request_id if self.context else None,
                kind=self.request.kind, where="result", detail=detail,
            )

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Wait for the reply.

        Waits at most ``timeout`` seconds and never past the request's
        own deadline; raises :class:`ServiceTimeout` if neither yields a
        reply in time.  Compute errors re-raise here unchanged."""
        if self._future is None:
            # resolved inside submit(): nothing to wait for
            if self._error is not None:
                raise self._error
            return self._result
        remaining = timeout
        if self.deadline is not None:
            until_deadline = self.deadline - time.perf_counter()
            remaining = (
                until_deadline
                if remaining is None
                else min(remaining, until_deadline)
            )
        if remaining is not None and remaining <= 0 and not self.done():
            self._note_timeout("deadline expired before wait")
            raise ServiceTimeout(
                f"{self.request.kind} request deadline expired"
            )
        try:
            return self._future.result(remaining)
        except _FutureTimeout:
            self._note_timeout("no reply within wait budget")
            raise ServiceTimeout(
                f"no {self.request.kind} reply within "
                f"{remaining:.3f}s"
            ) from None


class AnalysisService:
    """A shared, thread-safe analysis server (in-process).

    Parameters
    ----------
    workers:
        Pool size for the requests that miss the cache or replay a
        certificate (``<= 1`` computes them inline inside :meth:`submit`
        — same results, no concurrency).  Cache hits never reach the
        pool: :meth:`submit` serves them on the calling thread.
    max_pending:
        Admission bound on requests in flight; the ``max_pending+1``-th
        concurrent submit raises :class:`ServiceOverloaded`.
    cache:
        The shared :class:`ResultCache` (own instance by default).
    default_timeout:
        Deadline in seconds applied to requests submitted without an
        explicit ``timeout=``; ``None`` means wait forever.
    verify_on_hit:
        When true, a cache hit whose value carries a certificate
        (``DecomposeRequest(certify=True)`` results) is *replayed*
        through the independent :mod:`repro.certs` verifier before being
        returned.  A rejected certificate evicts the poisoned line,
        recomputes fresh, and records a ``rejected`` cache event —
        "why trust a cached result?" answered with a proof, not a hash.
    journal:
        The :class:`~repro.ops.journal.EventJournal` lifecycle events go
        to (the process-wide :data:`~repro.ops.journal.JOURNAL` by
        default; ``None`` disables journaling entirely).
    slow_threshold:
        Requests whose submit→done wall time meets or exceeds this many
        seconds are recorded in :meth:`slow_log` with their phase
        breakdown and journaled at ``warn``.  ``None`` (default)
        disables the slow-log.
    track_inflight:
        When true (default), every admitted request carries a
        :class:`RequestContext` — the root span and id/deadline/phase
        record behind :meth:`inflight`, the slow-log and kernel-phase
        attribution.
        ``False`` turns the whole context plane off, phase spans
        included (the ``BENCH_obs_overhead.json`` baseline
        configuration).
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        max_pending: int = 64,
        cache: ResultCache | None = None,
        default_timeout: float | None = None,
        verify_on_hit: bool = False,
        journal: EventJournal | None = JOURNAL,
        slow_threshold: float | None = None,
        track_inflight: bool = True,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if slow_threshold is not None and slow_threshold < 0:
            raise ValueError("slow_threshold must be >= 0")
        self.pool = WorkerPool(
            workers, thread_name_prefix="svc-worker", journal=journal
        )
        self.max_pending = max_pending
        self.cache = cache if cache is not None else ResultCache(journal=journal)
        self.default_timeout = default_timeout
        self.verify_on_hit = verify_on_hit
        self.journal = journal
        self.slow_threshold = slow_threshold
        self.track_inflight = track_inflight
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False
        self._inflight: set[RequestContext] = set()
        self._slow: deque[dict] = deque(maxlen=SLOW_LOG_SIZE)
        self._ok_children: dict[tuple[str, str], tuple] = {}

    # -- journal plumbing ----------------------------------------------------

    def _emit(self, name: str, level: int = INFO,
              context: RequestContext | None = None, **fields) -> None:
        if self.journal is not None:
            self.journal.emit(
                name, level,
                request_id=None if context is None else context.request_id,
                **fields,
            )

    # -- the request path ---------------------------------------------------

    def submit(self, request: Request | RequestFrame, *,
               timeout: float | None = None, origin: str = "local",
               request_id: str | None = None) -> PendingReply:
        """Admit one request, returning its :class:`PendingReply`.

        A cache hit is answered here, on the calling thread, and its
        reply comes back holding its result (a subject whose key cannot
        be built: holding its error); misses, uncacheable requests and
        certificate replays run on the worker pool.  A shard submits
        a :class:`~repro.service.wire.RequestFrame` for a frame that
        carries its router's cache key: the key is looked up as given,
        and the frame is decoded only when the request must be computed.

        Raises :class:`ServiceOverloaded` when ``max_pending`` requests
        are already in flight and :class:`ServiceClosed` after
        :meth:`shutdown` — both *before* any work is queued.  ``origin``
        tags the request's context (e.g. ``"http"`` for a fronting
        gateway) for the in-flight table and slow-log.  ``request_id``
        adopts a caller-minted trace id instead of minting a fresh one —
        the sharded router passes its client-side id here, so a request
        is traceable shard-side under the same id it carries in the
        router (ignored when ``track_inflight=False``: there is no
        context to carry it)."""
        if not isinstance(request, (Request, RequestFrame)):
            raise TypeError(
                f"submit() takes a Request, not {type(request).__name__!r}"
            )
        submitted_at = time.perf_counter()
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else submitted_at + timeout
        context = None
        journal = self.journal
        if self.track_inflight:
            # created before the admission lock (wasted work only on the
            # rare reject) so registration shares the lock acquisition
            context = RequestContext(
                kind=request.kind, origin=origin, deadline=deadline,
                request_id=request_id, start=submitted_at,
            )
        rejected_cause = None
        with self._lock:
            if self._closed:
                rejected_cause = "closed"
            elif self._pending >= self.max_pending:
                rejected_cause = "overload"
                depth = self._pending
            else:
                self._pending += 1
                depth = self._pending
                if context is not None:
                    self._inflight.add(context)
        if rejected_cause is not None and context is not None:
            context.close()
        if rejected_cause == "closed":
            _REJECTED.labels(kind=request.kind, cause="closed").add()
            self._emit("service.request_shed", WARN,
                       kind=request.kind, cause="closed")
            raise ServiceClosed("service is shut down")
        if rejected_cause == "overload":
            _REJECTED.labels(kind=request.kind, cause="overload").add()
            self._emit("service.request_shed", WARN,
                       kind=request.kind, cause="overload", pending=depth)
            raise ServiceOverloaded(
                f"{depth} requests already in flight "
                f"(max_pending={self.max_pending})"
            )
        _QUEUE_DEPTH.add(1)
        # admission is per-request chatter → debug; the level check
        # here keeps the production posture to one compare
        if (context is not None and journal is not None
                and journal.min_level <= DEBUG):
            journal.emit("service.request_admitted", DEBUG,
                         request_id=context.request_id,
                         kind=request.kind, origin=origin, pending=depth)
        reply = PendingReply(request, deadline, context, journal)
        key_error = None
        try:
            key = (request.key if isinstance(request, RequestFrame)
                   else handlers.cache_key(request))
            value = MISS if key is None else self.cache.lookup(key)
        except Exception as exc:  # noqa: BLE001 — result() re-raises it
            # a subject the key cannot be built for fails its request,
            # never the submit() call
            key, value, key_error = None, MISS, exc
        if key_error is not None or (
                value is not MISS and not self._needs_replay(value)):
            try:
                reply._result = self._process(reply, submitted_at, key,
                                              value, None, key_error)
            except BaseException as exc:  # noqa: BLE001 — result() raises it
                reply._error = exc
            return reply
        handed_off = time.perf_counter()
        try:
            reply._future = self.pool.submit(
                self._process, reply, submitted_at, key, value, handed_off
            )
        except BaseException as exc:
            # submit() can race shutdown(): _closed is checked under the
            # lock, but the executor may be shut down before this call
            # lands.  Roll back admission so neither the pending count
            # nor the depth gauge leaks, and surface the service's own
            # closed error instead of a raw executor RuntimeError.
            with self._lock:
                self._pending -= 1
                if context is not None:
                    self._inflight.discard(context)
            _QUEUE_DEPTH.sub(1)
            if context is not None:
                context.close()
            _REJECTED.labels(kind=request.kind, cause="closed").add()
            self._emit("service.request_shed", WARN, context,
                       kind=request.kind, cause="closed")
            raise ServiceClosed(
                "service shut down while the request was being admitted"
            ) from exc
        return reply

    def request(self, request: Request, *, timeout: float | None = None,
                origin: str = "local") -> ServiceResult:
        """Submit and wait: ``submit(...).result()`` in one call."""
        return self.submit(request, timeout=timeout, origin=origin).result()

    def _needs_replay(self, value) -> bool:
        """Whether serving this cached value means replaying its
        certificate first (``verify_on_hit``)."""
        return (self.verify_on_hit
                and getattr(value, "certificate", None) is not None)

    def _process(
        self, reply: PendingReply, submitted_at: float, key: str | None,
        value, handed_off: float | None,
        key_error: Exception | None = None,
    ) -> ServiceResult:
        """Build one request's :class:`ServiceResult` — the only place
        one is built, for every request — with the request current, so
        its phases and every kernel span below them are charged to it.

        A cache hit runs here on the submitting thread (``handed_off`` is
        ``None``; ``value`` is the cached value); a miss or a replay runs
        on a pool worker (``value`` is :data:`~repro.service.cache.MISS`
        or the certificate-bearing hit).  ``key_error`` is what building
        the key raised, re-raised here as the request's compute error."""
        context = reply.context
        if context is None:
            return self._serve(reply, submitted_at, key, value, handed_off,
                               key_error)
        if handed_off is not None or key_error is not None:
            # leaving the block closes the request's root span
            with context:
                return self._serve(reply, submitted_at, key, value,
                                   handed_off, key_error)
        # A plain hit runs nothing inside its request, so the request
        # never becomes current: _serve charges its one phase, and it is
        # closed here.
        try:
            return self._serve(reply, submitted_at, key, value, None, None)
        except BaseException as exc:
            context.set(error=type(exc).__name__)
            raise
        finally:
            context.close()

    def _serve(self, reply: PendingReply, submitted_at: float,
               key: str | None, value, handed_off: float | None,
               key_error: Exception | None) -> ServiceResult:
        kind = reply.request.kind
        deadline = reply.deadline
        context = reply.context
        picked_up = time.perf_counter()
        # The wall-time partition: on the submitting thread ``compute``
        # runs from submit; a handed-off request adds ``queue`` (handoff →
        # worker pickup) and a second ``compute`` stretch from pickup.
        # Phase spans open only with a request to charge them to.
        compute_started = submitted_at
        if handed_off is not None:
            compute_started = picked_up
            if context is not None:
                # the submit-side stretch (key, lookup) opened the
                # compute phase; both are recorded here, at pickup
                Span("compute", start=submitted_at).close(handed_off)
                Span("queue", start=handed_off).close(picked_up)
        try:
            if deadline is not None and picked_up >= deadline:
                # Shed expired work instead of computing a reply nobody
                # is waiting for.
                _TIMEOUTS.labels(kind=kind).add()
                _REQUESTS.labels(kind=kind, outcome="timeout").add()
                self._emit("service.request_timeout", WARN, context,
                           kind=kind,
                           where="submit" if handed_off is None else "worker",
                           detail="deadline expired before compute")
                raise ServiceTimeout(
                    f"{kind} request deadline expired before compute"
                )
            try:
                hit = value is not MISS
                if hit:
                    # nothing runs inside a replay's compute phase, so
                    # the span need not become current
                    if context is not None and handed_off is not None:
                        Span("compute", start=compute_started).close()
                else:
                    with (_NO_SPAN if context is None else
                          Span("compute", start=compute_started)):
                        if key_error is not None:
                            raise key_error
                        request = self._decoded(reply)
                        value, hit = self.cache.get_or_compute(
                            key, lambda: handlers.compute(request)
                        )
                event = "hit" if hit else ("miss" if key else "uncacheable")
                if hit and self._needs_replay(value):
                    # the certificate replay is its own phase
                    with _NO_SPAN if context is None else Span("verify"):
                        value, hit, event = self._replay_hit(
                            reply, key, value, context
                        )
            except BaseException as exc:
                _REQUESTS.labels(kind=kind, outcome="error").add()
                self._emit("service.request_done", WARN, context,
                           kind=kind, outcome="error",
                           error=type(exc).__name__)
                raise
            elapsed = time.perf_counter() - submitted_at
            if context is not None and handed_off is None:
                # a plain hit's compute phase spans its whole life
                context.charge("compute", elapsed)
            events, latency, ok = self._ok_metrics(kind, event)
            events.add()
            # routine cache outcomes and healthy completions are chatter
            # (debug); a rejected certificate is an anomaly (warn) — the
            # production posture journals anomalies only, and reads no
            # request id
            journal = self.journal
            chatty = journal is not None and journal.min_level <= DEBUG
            if chatty or (journal is not None and event == "rejected"):
                request_id = None if context is None else context.request_id
                journal.emit("cache." + event,
                             WARN if event == "rejected" else DEBUG,
                             request_id=request_id, kind=kind, key=key)
            latency.record(elapsed)
            ok.add()
            if chatty:
                journal.emit("service.request_done", DEBUG,
                             request_id=request_id, kind=kind,
                             outcome="ok", cache=event, elapsed=elapsed)
            if self.slow_threshold is not None:
                self._note_if_slow(context, kind, elapsed)
            return ServiceResult(
                request=reply.request,
                value=value,
                cached=hit,
                key=key,
                elapsed_seconds=elapsed,
            )
        finally:
            with self._lock:
                self._pending -= 1
                if context is not None:
                    self._inflight.discard(context)
            _QUEUE_DEPTH.sub(1)

    def _ok_metrics(self, kind: str, event: str) -> tuple:
        """The cache-event counter, latency histogram and ``ok`` counter a
        request of ``kind`` that completed with cache ``event`` charges.
        Resolved on first use and reused (the ``rv.stats`` lazy-child
        idiom), so a hit pays no label lookup; kinds and events are
        closed sets."""
        children = self._ok_children.get((kind, event))
        if children is None:
            children = self._ok_children.setdefault((kind, event), (
                _CACHE_EVENTS.labels(kind=kind, event=event),
                _LATENCY.labels(kind=kind),
                _REQUESTS.labels(kind=kind, outcome="ok"),
            ))
        return children

    def _note_if_slow(self, context: RequestContext | None, kind: str,
                      elapsed: float) -> None:
        """Retain + journal a slow request with its phase evidence."""
        if self.slow_threshold is None or elapsed < self.slow_threshold:
            return
        _SLOW.labels(kind=kind).add()
        entry = {
            "kind": kind,
            "elapsed_seconds": elapsed,
            "threshold_seconds": self.slow_threshold,
        }
        if context is not None:
            entry.update(context.to_dict())
            entry["elapsed_seconds"] = elapsed
        with self._lock:
            self._slow.append(entry)
        self._emit(
            "service.slow_request", WARN, context,
            kind=kind, elapsed=round(elapsed, 6),
            threshold=self.slow_threshold,
            phases={k: round(v, 6)
                    for k, v in (context.phases() if context else {}).items()},
        )

    @staticmethod
    def _decoded(reply: PendingReply) -> Request:
        """The request ``reply`` must compute.  A shard's
        :class:`~repro.service.wire.RequestFrame` is decoded here, and the
        key rebuilt from its decoded subject must be the frame's: a
        disagreeing key fails the request with :class:`WireError` before
        anything is computed or cached.  A hit never gets here — it
        trusts the router's key (DESIGN.md §13)."""
        request = reply.request
        if isinstance(request, Request):
            return request
        decoded = request.decode()
        if handlers.cache_key(decoded) != request.key:
            raise WireError(
                f"frame key {request.key!r} is not the key of its "
                f"{request.kind} request"
            )
        reply.request = decoded
        return decoded

    def _replay_hit(self, reply: PendingReply, key: str | None, value,
                    context: RequestContext | None = None):
        """Re-verify a certificate-bearing cache hit before serving it.

        A certificate the independent verifier rejects means the cache
        line cannot be trusted — evict it, recompute fresh, and re-insert
        the new value."""
        from repro.certs import verify_certificate

        if verify_certificate(value.certificate).ok:
            self._emit("cert.verify_pass", INFO, context, key=key)
            return value, True, "hit"
        self._emit("cert.verify_fail", WARN, context, key=key)
        self.cache.invalidate(key, rejected=True)
        # _process journals the summary "cache.rejected" outcome event
        value = handlers.compute(self._decoded(reply))
        if key is not None:
            self.cache.put(key, value)
        return value, False, "rejected"

    # -- queries ------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet finished."""
        with self._lock:
            return self._pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called (liveness probe)."""
        with self._lock:
            return self._closed

    def readiness(self) -> dict:
        """The ``/readyz`` contract: is this instance routable?

        ``ready`` is true iff the service is open *and* the admission
        gate has headroom — a saturated instance reports unready so a
        fronting balancer (or the future sharded tier) steers new work
        elsewhere instead of queuing into guaranteed
        :class:`ServiceOverloaded` rejections."""
        with self._lock:
            pending, closed = self._pending, self._closed
        saturation = pending / self.max_pending
        return {
            "ready": not closed and pending < self.max_pending,
            "closed": closed,
            "pending": pending,
            "max_pending": self.max_pending,
            "saturation": saturation,
            "workers": self.pool.workers,
        }

    def inflight(self) -> list[dict]:
        """The live request table (``/debug/inflight``): one row per
        admitted-but-unfinished request — id, kind, origin, age,
        deadline remaining, and the phase breakdown recorded so far —
        oldest first."""
        with self._lock:
            contexts = list(self._inflight)
        rows = [context.to_dict() for context in contexts]
        rows.sort(key=lambda row: row["age_seconds"], reverse=True)
        return rows

    def slow_log(self) -> list[dict]:
        """Retained slow-request entries, oldest first (bounded at
        :data:`SLOW_LOG_SIZE`)."""
        with self._lock:
            return list(self._slow)

    def snapshot(self) -> dict:
        """A stats dashboard: cache counters + in-flight depth."""
        info = self.cache.info()
        return {
            "pending": self.pending,
            "max_pending": self.max_pending,
            "workers": self.pool.workers,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "cache_size": info.size,
            "cache_maxsize": info.maxsize,
            "cache_hit_ratio": info.hit_ratio,
        }

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new requests, then (by default) drain in-flight ones."""
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            self._emit("service.shutdown", wait=wait)
        self.pool.shutdown(wait=wait)

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
