"""repro.ops — the live operations plane of the analysis service.

:mod:`repro.obs` can count and time; this package answers the questions
a running deployment gets asked: *what are you doing right now, which
requests are slow and why, and are you healthy enough to route to?*
Four pillars (DESIGN.md §11):

* **Request contexts** — :class:`repro.obs.trace.RequestContext`, the
  root span :class:`~repro.service.server.AnalysisService` opens per
  request.  The worker pool's context copy carries it across threads,
  its child spans are the request's phases and every kernel
  :class:`~repro.obs.profile.PhaseTimer` span below them is a subphase,
  so each request's wall time decomposes into attributable phases (the
  slow-log's evidence).
* :mod:`repro.ops.journal` — the :class:`EventJournal`: a bounded,
  level-filtered ring of typed, request-correlated events
  (admitted/shed/timed-out, cache hit/miss/rejected/evicted, cert
  verify pass/fail, pool worker start/death), drainable in-process and
  over HTTP.
* :mod:`repro.ops.sampler` — :class:`SamplingProfiler`, a
  ``sys._current_frames()`` wall-clock sampler emitting collapsed
  stacks (flamegraph.pl / speedscope) with a self-measured overhead
  gauge.
* :mod:`repro.ops.http` — :class:`OpsServer`, the stdlib HTTP
  introspection endpoint: ``/metrics``, ``/healthz``, ``/readyz`` (the
  sharded tier's routing contract), ``/debug/inflight``,
  ``/debug/cache``, ``/debug/slowlog``, ``/debug/events``,
  ``/debug/profile``.

Layering: this package imports only :mod:`repro.obs` submodules and the
stdlib; the service hands itself to :class:`OpsServer` duck-typed, so
``ops`` never depends on ``service`` (no import cycle, RC003).

Quick start::

    from repro.ops import start_ops_server
    from repro.service import AnalysisService

    service = AnalysisService(workers=4, slow_threshold=0.25)
    ops = start_ops_server(service)     # ephemeral port on 127.0.0.1
    print(ops.url)                       # scrape /metrics, hit /readyz
"""

from .http import OpsServer, start_ops_server
from .journal import (
    DEBUG,
    ERROR,
    EVENT_CATALOG,
    EVENT_NAME_RE,
    INFO,
    JOURNAL,
    LEVELS,
    WARN,
    Event,
    EventJournal,
    JournalError,
    to_jsonl,
)
from .sampler import SamplingProfiler, profile_for

__all__ = [
    "EventJournal",
    "Event",
    "JournalError",
    "JOURNAL",
    "EVENT_CATALOG",
    "EVENT_NAME_RE",
    "LEVELS",
    "DEBUG",
    "INFO",
    "WARN",
    "ERROR",
    "to_jsonl",
    "SamplingProfiler",
    "profile_for",
    "OpsServer",
    "start_ops_server",
]
