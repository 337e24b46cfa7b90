"""Streaming runtime verification at serving scale.

The one-shot monitors in :mod:`repro.ltl.monitoring` and
:mod:`repro.enforcement.monitor` carry the theory; this package carries
the traffic.  Layering (each layer only knows the one below):

* :mod:`repro.rv.verdicts` — the four-valued verdict lattice
  (:class:`Verdict4`, :class:`MonitorOutcome`) that decomposition-driven
  monitoring produces;
* :mod:`repro.rv.compile` — formulas → :func:`repro.analysis.decompose`
  → dense transition tables (:class:`DecomposedMonitor` =
  :class:`MonitorTable` product of the safety closures +
  :class:`BoundTracker` for the liveness conjunct), memoized in an LRU
  :class:`CompileCache`;
* :mod:`repro.rv.session` — per-trace cursors over shared tables with
  per-session finitary horizons, stepped by the package's one loop
  (:meth:`TraceSession.encode`, then :meth:`TraceSession.advance`),
  and the id directory (:class:`SessionManager`);
* :mod:`repro.rv.pool` — the shared inline-or-parallel
  :class:`WorkerPool` (also runs :mod:`repro.service` cache misses and
  certificate replays);
* :mod:`repro.rv.engine` — batched ingest (route and encode in one
  pass, then advance), monitor-grouped stepping over the pool, stats
  and verdict transitions charged once per batch (:class:`RvEngine`);
* :mod:`repro.rv.stats` — the engine's measurements
  (:class:`EngineStats`), a facade over the shared :mod:`repro.obs`
  metric registry (``repro_rv_*`` families with an ``engine`` label,
  including the PR-10 ``repro_rv_verdict_transitions_total`` and
  ``repro_rv_verdict_latency_seconds``); ingest and group-drain spans
  join the exported trace while :data:`repro.obs.RECORDER` records.

The three-valued :class:`~repro.ltl.monitoring.Verdict3` surface is
unchanged and the engine stays bit-identical to feeding each session's
events to an :class:`~repro.ltl.monitoring.RvMonitor` one at a time —
the test suite enforces this equivalence property.  The four-valued
:class:`Verdict4` surface (``verdict4``, ``outcome()``, horizons) rides
alongside it.
"""

from repro.ltl.monitoring import Verdict3

from .compile import (
    BoundTracker,
    CacheInfo,
    CompileCache,
    DEFAULT_CACHE,
    DecomposedMonitor,
    MonitorTable,
    canonical_key,
    compile_formula,
)
from .engine import RvEngine
from .pool import WorkerPool
from .session import BackpressureError, SessionError, SessionManager, TraceSession
from .stats import EngineStats
from .verdicts import MonitorOutcome, Verdict4, most_severe

__all__ = [
    "Verdict3",
    "Verdict4",
    "MonitorOutcome",
    "most_severe",
    "BoundTracker",
    "MonitorTable",
    "DecomposedMonitor",
    "CompileCache",
    "CacheInfo",
    "DEFAULT_CACHE",
    "canonical_key",
    "compile_formula",
    "TraceSession",
    "SessionManager",
    "SessionError",
    "BackpressureError",
    "WorkerPool",
    "RvEngine",
    "EngineStats",
]
