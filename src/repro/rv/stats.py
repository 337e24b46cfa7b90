"""Engine observability: a facade over the shared metric registry.

The metric types live in :mod:`repro.obs.metrics` alone;
:class:`EngineStats` registers every engine measurement in the
process-wide :data:`~repro.obs.metrics.REGISTRY` under ``repro_rv_*``
names with an ``engine`` label, one label set per engine instance, so
the numbers show in the registry's Prometheus and JSON exposition
beside every other subsystem's.  Reads and writes both take the
metrics' locks, and step latencies are log-bucketed (HDR-style, ~12%
relative bucket width) over the whole run.

The overhead budget: one fused lock acquire for the batch counters and
one histogram record, charged once per *batch*, never per group,
session or event; only a session whose verdict moved adds its own
verdict record and its transition record, the latter through tables
indexed by the four-valued verdict's severity.
"""

from __future__ import annotations

import itertools

from repro.ltl.monitoring import Verdict3
from repro.obs.metrics import MetricRegistry, REGISTRY, share_lock

from .verdicts import SEVERITY_NAMES, Verdict4

__all__ = ["EngineStats"]

#: Distinguishes each engine's label set in the shared registry.
_ENGINE_IDS = itertools.count()


class EngineStats:
    """Everything the engine measures, in one bundle.

    * ``events`` — events consumed by sessions (including post-truncation
      events, which are counted but not stepped — matching
      :class:`~repro.ltl.monitoring.RvMonitor` position semantics);
    * ``steps`` — actual table transitions (``events - steps`` is the work
      bad-prefix truncation saved);
    * ``batches`` — ``ingest`` calls; ``drains`` — per-session drains
      (one per session touched by a batch);
    * ``verdicts`` — sessions *reaching* each definite verdict kind;
    * ``step_latency`` — per-event seconds, sampled once per batch
      (batch wall-time / events the batch drained).

    Cache hit/miss counters live on the :class:`~repro.rv.compile
    .CompileCache`; :meth:`snapshot` merges them when given the cache.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.metrics.MetricRegistry` to report into;
        defaults to the process-wide one.
    engine:
        The ``engine`` label value; defaults to a fresh sequential id,
        which is what keeps per-instance counts independent.
    """

    def __init__(self, *, registry: MetricRegistry | None = None,
                 engine: str | None = None):
        registry = REGISTRY if registry is None else registry
        self.registry = registry
        self.engine = str(next(_ENGINE_IDS)) if engine is None else str(engine)
        label = {"engine": self.engine}
        self.events = registry.counter(
            "repro_rv_events_total",
            "events consumed by sessions (including post-truncation events)",
            ("engine",),
        ).labels(**label)
        self.steps = registry.counter(
            "repro_rv_steps_total",
            "monitor-table transitions performed",
            ("engine",),
        ).labels(**label)
        self.batches = registry.counter(
            "repro_rv_batches_total", "ingest() calls", ("engine",)
        ).labels(**label)
        self.drains = registry.counter(
            "repro_rv_drains_total", "per-session drains", ("engine",)
        ).labels(**label)
        self.sessions_opened = registry.counter(
            "repro_rv_sessions_opened_total", "sessions opened", ("engine",)
        ).labels(**label)
        verdict_family = registry.counter(
            "repro_rv_verdicts_total",
            "sessions reaching each verdict kind",
            ("engine", "verdict"),
        )
        self.verdicts = {
            kind: verdict_family.labels(engine=self.engine, verdict=kind.value)
            for kind in (Verdict3.TRUE, Verdict3.FALSE, Verdict3.UNKNOWN)
        }
        self.step_latency = registry.histogram(
            "repro_rv_step_latency_seconds",
            "per-event drain latency (batch wall-time / events drained)",
            ("engine",),
        ).labels(**label)
        # Four-valued verdict plane (PR 10): per-(from, to) transition
        # counts and session-open → transition latency per destination,
        # in tables indexed by severity.  Children are resolved on first
        # use, so the exposition lists only the edges an engine has seen.
        self._transition_family = registry.counter(
            "repro_rv_verdict_transitions_total",
            "four-valued verdict transitions across sessions (from → to)",
            ("engine", "from", "to"),
        )
        self._verdict_latency_family = registry.histogram(
            "repro_rv_verdict_latency_seconds",
            "session-open → verdict-transition latency, per new verdict",
            ("engine", "verdict"),
        )
        self._transitions: list = [None] * 16
        self._latencies: list = [None] * 4
        # The ingest updates these four together once per batch; fuse
        # them under one lock so it pays one acquire.
        self._drain_lock = share_lock(self.events, self.steps, self.drains,
                                      self.batches)

    def record_drain(self, events: int, steps: int, sessions: int,
                     elapsed: float) -> None:
        """One batch drained: ``sessions`` sessions consumed ``events``
        events and took ``steps`` transitions in ``elapsed`` seconds —
        one fused lock acquire (:func:`~repro.obs.metrics.share_lock`)
        and one histogram record."""
        with self._drain_lock:
            self.events._value += events
            self.steps._value += steps
            self.drains._value += sessions
            self.batches._value += 1
        if events:
            self.step_latency.record(elapsed / events)

    def record_verdict(self, verdict: Verdict3) -> None:
        self.verdicts[verdict].add()

    def record_transition(self, old: int, new: int, latency: float) -> None:
        """One session's four-valued verdict changed from severity
        ``old`` to ``new``, ``latency`` seconds after the session
        opened.  Child resolution races are benign: ``labels()`` is
        get-or-create, so a duplicate lookup returns the same child."""
        counter = self._transitions[old * 4 + new]
        if counter is None:
            counter = self._transitions[old * 4 + new] = (
                self._transition_family.labels(**{
                    "engine": self.engine, "from": SEVERITY_NAMES[old],
                    "to": SEVERITY_NAMES[new]}))
        counter.add()
        histogram = self._latencies[new]
        if histogram is None:
            histogram = self._latencies[new] = (
                self._verdict_latency_family.labels(
                    engine=self.engine, verdict=SEVERITY_NAMES[new]))
        histogram.record(latency)

    def _verdicts4(self) -> dict:
        """Transitions *into* each four-valued verdict, summed over the
        originating verdicts (the dashboard-friendly aggregation; the
        per-edge counts stay in the registry exposition)."""
        out = {kind.value: 0 for kind in Verdict4}
        for edge, counter in enumerate(self._transitions):
            if counter is not None:
                out[SEVERITY_NAMES[edge % 4]] += counter.value
        return out

    def snapshot(self, cache=None) -> dict:
        """A plain-dict dashboard with stable keys (the example and the
        benchmark report read it)."""
        out = {
            "events": self.events.value,
            "steps": self.steps.value,
            "truncation_savings": self.events.value - self.steps.value,
            "batches": self.batches.value,
            "drains": self.drains.value,
            "sessions_opened": self.sessions_opened.value,
            "verdicts": {k.value: c.value for k, c in self.verdicts.items()},
            "step_latency_p50_us": self.step_latency.p50() * 1e6,
            "step_latency_p99_us": self.step_latency.p99() * 1e6,
            "verdicts4": self._verdicts4(),
            # session-open → transition latency, per destination verdict
            # (only verdicts actually reached appear)
            "verdict_latency_us": {
                name: {
                    "p50": histogram.p50() * 1e6,
                    "p99": histogram.p99() * 1e6,
                }
                for name, histogram in sorted(zip(SEVERITY_NAMES,
                                                  self._latencies))
                if histogram is not None
            },
        }
        if cache is not None:
            info = cache.info()
            out["cache"] = {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "maxsize": info.maxsize,
            }
        return out
