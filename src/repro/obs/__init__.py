"""repro.obs — unified observability: metrics, spans, exposition.

Dependency-free and shared by every package in the repo.  Four modules:

* :mod:`repro.obs.metrics` — the labeled-metric registry (monotonic
  counters, gauges, log-bucketed histograms with p50/p95/p99), all
  thread-safe, all reporting through one process-wide :data:`REGISTRY`;
* :mod:`repro.obs.trace` — the one timing model: :class:`Span`, whose
  current instance lives in one contextvar (so the tree survives the
  worker pool's context copy); :class:`RequestContext`, the root span of
  one served request, whose direct children are its phases and deeper
  spans its subphases (the ops plane, :mod:`repro.ops`, hangs slow-logs,
  journal events and the in-flight table off it); and :data:`RECORDER`,
  the process-wide switch and ring behind Chrome / JSONL trace export;
* :mod:`repro.obs.profile` — :func:`timed` and :class:`PhaseTimer`,
  spans that also record into a histogram, for attributing wall time to
  algorithm phases;
* :mod:`repro.obs.export` — Prometheus text / stable JSON / JSONL
  exposition plus :func:`dump_bench_json`, the benchmark suite's
  persistence hook.

Conventions (DESIGN.md, "Observability"): metric names follow
``repro_<pkg>_<name>_<unit>``; metrics may sit on per-batch hot paths
(budget: one lock acquire + one add per event), spans sit on batches,
phases and requests, never on single events, and the span ring is
filled only while :data:`RECORDER` is recording.
"""

from .export import (
    dump_bench_json,
    parse_prometheus_text,
    registry_to_dict,
    stable_json,
    to_prometheus,
    write_jsonl,
)
from .metrics import (
    Counter,
    DEFAULT_GROWTH,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricRegistry,
    REGISTRY,
)
from .profile import PhaseTimer, metric_name, timed
from .trace import RECORDER, RequestContext, Span, current_span

__all__ = [
    "REGISTRY",
    "MetricRegistry",
    "MetricFamily",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_GROWTH",
    "Span",
    "RECORDER",
    "current_span",
    "PhaseTimer",
    "timed",
    "metric_name",
    "RequestContext",
    "to_prometheus",
    "parse_prometheus_text",
    "registry_to_dict",
    "stable_json",
    "write_jsonl",
    "dump_bench_json",
]
