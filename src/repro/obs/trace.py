"""Spans: the one timing model, with Chrome trace-event export.

A :class:`Span` is one timed region::

    with Span("rv.ingest") as ingest:
        with Span("rv.drain_group"):     # child: ingest is current
            ...

The current span lives in one :mod:`contextvars` variable, so nested
``with`` blocks form a tree without any plumbing, and the tree survives
the worker pool: :class:`repro.rv.pool.WorkerPool` runs each task in a
copy of the submitter's context, so a span opened on a pool thread is a
child of the span that was current where the task was submitted.

Closing a span does three jobs:

* it records its duration into its histogram, when it has one
  (:class:`~repro.obs.profile.PhaseTimer` phases and
  :func:`~repro.obs.profile.timed` calls do);
* it charges its duration to the enclosing request: a
  :class:`RequestContext` is a root span, its direct children are the
  request's **phases** (``queue`` → ``compute`` → ``verify``, which
  partition its lifetime) and every deeper span is a **subphase**
  (kernel phases, attributed by name);
* while :data:`RECORDER` is recording, it joins one process-wide ring
  of finished spans, exportable as JSONL or as Chrome trace-event JSON
  that loads in ``about://tracing`` / ``ui.perfetto.dev``.

Recording is off by default and switched for the whole process
(``RECORDER.start()`` / ``RECORDER.stop()``), the way
:data:`~repro.obs.metrics.REGISTRY` and the ops journal are shared.
With recording off a span costs two clock reads and a contextvar
set/reset, and takes no lock; spans still sit only on batches, phases
and requests, never on single events.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque

_perf_counter = time.perf_counter

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None
)

#: Finished spans the recorder keeps (oldest dropped first).
MAX_SPANS = 65536

_SPAN_IDS = itertools.count(1)
_REQUEST_IDS = itertools.count(1)
#: The pid prefix keeps request ids unique across shard processes.
_REQUEST_ID_FORMAT = f"r{os.getpid():x}-%06x"


def mint_request_id() -> str:
    """A fresh process-unique request id."""
    return _REQUEST_ID_FORMAT % next(_REQUEST_IDS)


def current_span() -> "Span | None":
    """The span current in this thread of execution, if any."""
    return _CURRENT.get()


class Span:
    """One timed region: name, attributes, parent, perf-counter bounds.

    The span starts when it is created (at ``start`` when given, for a
    stretch measured from an earlier instant); its parent is the span
    current at that moment.  ``with span:`` makes it current for the
    block and closes it on exit; :meth:`close` ends a span that was
    never made current (``end`` when given).  ``span_id`` is 0 and
    ``thread_id`` unset unless the span is recorded."""

    __slots__ = ("name", "attrs", "parent", "_request", "start", "end",
                 "span_id", "thread_id", "_histogram", "_token")

    def __init__(self, name: str, *, start: float | None = None,
                 histogram=None, **attrs):
        parent = _CURRENT.get()
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self._request = None if parent is None else parent.request
        self._histogram = histogram
        self.end = None
        self.span_id = 0
        self.start = _perf_counter() if start is None else start
        if RECORDER.recording:
            RECORDER._opened(self)

    @property
    def request(self) -> "RequestContext | None":
        """The request this span is charged to, if any."""
        return self._request

    @property
    def parent_id(self) -> int | None:
        parent = self.parent
        return None if parent is None else (parent.span_id or None)

    def set(self, **attrs) -> "Span":
        """Attach attributes after creation (e.g. counts known later)."""
        self.attrs.update(attrs)
        return self

    def duration(self) -> float:
        """Seconds from start to end (to now while still open)."""
        end = self.end
        return (_perf_counter() if end is None else end) - self.start

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        self.close()
        return False

    def close(self, end: float | None = None) -> None:
        """End the span: record its histogram, charge its request, and
        hand it to the recorder when recording."""
        self.end = end = _perf_counter() if end is None else end
        seconds = end - self.start
        if self._histogram is not None:
            self._histogram.record(seconds)
        request = self._request
        if request is not None:
            request.charge(self.name, seconds, self.parent is request)
        if self.span_id:
            RECORDER._closed(self)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, dur={self.duration() * 1e6:.1f}us)")


class RequestContext(Span):
    """One request: a root span plus its identity and phase ledger.

    ``request_id`` is process-unique unless the caller supplies one;
    ``deadline`` is a ``perf_counter`` instant (the clock the service
    uses) or ``None``; ``origin`` names where the request came from
    (``"local"``, a peer shard, an HTTP client, ...).

    A request is always a root, whatever span is current where it is
    created, and is charged to nothing itself.  The service enters the
    request where its reply is built — on the submitting thread for a
    key error, on a pool worker for a miss or a certificate replay — and
    leaving that block closes it.  A plain cache hit runs nothing inside
    its request, so the service charges its one ``compute`` phase with
    :meth:`charge` and closes it without making it current.  Its ledger
    is single-writer by construction — only the thread currently
    serving the request closes its spans — and readers
    (``/debug/inflight``, the slow-log) take GIL-atomic dict copies, so
    no lock is taken."""

    __slots__ = ("request_id", "kind", "origin", "deadline",
                 "_phases", "_subphases")

    def __init__(self, *, kind: str = "", origin: str = "local",
                 deadline: float | None = None, request_id: str | None = None,
                 start: float | None = None):
        super().__init__("service.request", start=start)
        self.parent = self._request = None
        self.request_id = (mint_request_id() if request_id is None
                           else request_id)
        self.kind = kind
        self.origin = origin
        self.deadline = deadline
        self._phases: dict[str, float] | None = None
        self._subphases: dict[str, float] | None = None
        if self.span_id:
            self.set(kind=kind, request_id=self.request_id)

    @property
    def request(self) -> "RequestContext":
        # the spans below a request are charged to it; a property, not
        # the slot, because ``self._request = self`` would make every
        # request a reference cycle left to the garbage collector
        return self

    def charge(self, name: str, seconds: float, phase: bool = True) -> None:
        """Add ``seconds`` to the phase ``name`` (a subphase when
        ``phase`` is false).  A closing span charges its request here; a
        request with nothing running inside a phase — a cache hit's one
        ``compute`` stretch — charges it here without opening a span."""
        if phase:
            ledger = self._phases
            if ledger is None:
                ledger = self._phases = {}
        else:
            ledger = self._subphases
            if ledger is None:
                ledger = self._subphases = {}
        ledger[name] = ledger.get(name, 0.0) + seconds

    def phases(self) -> dict[str, float]:
        """Seconds per direct child span name (they partition the
        request's lifetime, so their sum reconstructs its wall time)."""
        return dict(self._phases) if self._phases else {}

    def subphases(self) -> dict[str, float]:
        """Seconds per deeper span name (kernel phases; these overlap
        the phases and each other freely)."""
        return dict(self._subphases) if self._subphases else {}

    def age(self) -> float:
        """Seconds since the request was created."""
        return _perf_counter() - self.start

    def remaining(self) -> float | None:
        """Seconds until the deadline (negative = expired), or ``None``."""
        if self.deadline is None:
            return None
        return self.deadline - _perf_counter()

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot (the ``/debug/inflight`` row)."""
        return {
            "request_id": self.request_id,
            "kind": self.kind,
            "origin": self.origin,
            "age_seconds": self.age(),
            "deadline_remaining": self.remaining(),
            "phases": self.phases(),
            "subphases": self.subphases(),
        }

    def __repr__(self) -> str:
        return (f"RequestContext({self.request_id}, kind={self.kind!r}, "
                f"age={self.age() * 1e3:.1f}ms)")


class SpanRecorder:
    """The process-wide span ring: while :attr:`recording`, every span
    created gets an id and every span closed is kept (the last
    :data:`MAX_SPANS`); spans still open are listed too, so a dump taken
    mid-request shows the request being served."""

    def __init__(self):
        self.recording = False
        self._finished: deque[Span] = deque(maxlen=MAX_SPANS)
        self._open: dict[int, Span] = {}
        self._lock = threading.Lock()
        self._epoch = _perf_counter()

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        """Stop recording; spans still open are forgotten (they were
        never finished while recording)."""
        self.recording = False
        with self._lock:
            self._open.clear()

    def clear(self) -> None:
        """Forget every recorded span, finished or open."""
        with self._lock:
            self._finished.clear()
            self._open.clear()

    def _opened(self, span: Span) -> None:
        span.span_id = next(_SPAN_IDS)
        span.thread_id = threading.get_ident()
        with self._lock:
            self._open[span.span_id] = span

    def _closed(self, span: Span) -> None:
        with self._lock:
            if self._open.pop(span.span_id, None) is not None:
                self._finished.append(span)

    def finished(self) -> list[Span]:
        """Finished spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def open_spans(self) -> list[Span]:
        """Spans created but not yet closed, oldest first."""
        with self._lock:
            spans = list(self._open.values())
        return sorted(spans, key=lambda span: span.start)

    def span_tree(self) -> dict[int | None, list[Span]]:
        """Finished spans grouped by ``parent_id``."""
        tree: dict[int | None, list[Span]] = {}
        for span in self.finished():
            tree.setdefault(span.parent_id, []).append(span)
        return tree

    # -- export -------------------------------------------------------------

    def _record(self, span: Span, now: float) -> dict:
        record = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start - self._epoch,
            "thread_id": span.thread_id,
            "attrs": span.attrs,
        }
        if span.end is None:
            record.update(duration=now - span.start, open=True)
        else:
            record["duration"] = span.end - span.start
        return record

    def records(self) -> list[dict]:
        """One plain record per span, finished first, then the open ones
        (marked ``"open": true``, with a duration up to now)."""
        now = _perf_counter()
        return [self._record(span, now)
                for span in self.finished() + self.open_spans()]

    def chrome_events(self) -> list[dict]:
        """Chrome trace-event records; timestamps are µs since the
        recorder's epoch.  Finished spans are "complete" (``ph: X``)
        events and open spans "begin" (``ph: B``) events."""
        pid = os.getpid()
        events = []
        for record in self.records():
            args = {"span_id": record["span_id"],
                    "parent_id": record["parent_id"], **record["attrs"]}
            event = {"name": record["name"], "cat": "repro",
                     "ts": record["start"] * 1e6, "pid": pid,
                     "tid": record["thread_id"], "args": args}
            if record.get("open"):
                event["ph"] = "B"
                args["open"] = True
            else:
                event.update(ph="X", dur=record["duration"] * 1e6)
            events.append(event)
        return events

    def chrome_trace(self) -> dict:
        return {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}

    def export_chrome(self, path) -> None:
        """Write Chrome trace JSON (open via ``about://tracing`` or
        https://ui.perfetto.dev)."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)

    def export_jsonl(self, path) -> None:
        """One JSON span record per line (greppable, streamable)."""
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")


#: The process-wide recorder.
RECORDER = SpanRecorder()
