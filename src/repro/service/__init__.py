"""The concurrent, cache-backed analysis server.

Layering (each layer only knows the one below):

* :mod:`repro.service.requests` — the typed request/reply vocabulary
  (:class:`DecomposeRequest`, :class:`ClassifyRequest`,
  :class:`CheckRequest`, :class:`ServiceResult`), the failure modes
  (:class:`ServiceOverloaded`, :class:`ServiceTimeout`,
  :class:`ServiceClosed`);
* :mod:`repro.service.handlers` — requests → canonical cache keys
  (via the ``canonical_key()`` methods and :mod:`repro.canonical`) and
  compute closures over :func:`repro.analysis.decompose`;
* :mod:`repro.service.cache` — the thread-safe memo LRU
  (:class:`ResultCache`);
* :mod:`repro.service.server` — admission control, worker-pool
  dispatch, deadlines, metrics and spans (:class:`AnalysisService`,
  :class:`PendingReply`);
* :mod:`repro.service.wire` — the versioned wire form of requests and
  replies (:func:`~repro.service.wire.encode_request` /
  :func:`~repro.service.wire.decode_request`) and the
  length-prefixed JSON frame protocol the sharded tier speaks;
* :mod:`repro.service.sharded` — N worker processes behind a
  consistent-hash router (:class:`ShardedService`);
* :mod:`repro.service.client` — the transport-agnostic facade most
  callers should use (:class:`Client` over :class:`InProcessTransport`
  or :class:`ShardedTransport`);
* :mod:`repro.service.warmup` — workload-file cache pre-population
  (:func:`load_workload` / :func:`replay_workload`) and seeded
  automaton workloads (:func:`random_workload`).

Quick start::

    from repro.service import Client

    with Client.in_process(workers=4) as client:
        reply = client.decompose(automaton)
        reply.safety, reply.liveness, reply.cached

    with Client.sharded(shards=4) as client:   # same verbs, scaled out
        reply = client.decompose(automaton)

:class:`Client` is the one caller-facing front door.
:class:`AnalysisService` stays exported beside it because three things
need the service object itself: the sharded worker embeds one per
shard, :class:`~repro.ops.http.OpsServer` and a borrowed
``Client(InProcessTransport(service))`` wrap a live one, and the
benchmark harness reaches ``client.transport.service`` for its
per-layer counters.
"""

from .cache import ResultCache, ResultCacheInfo, ResultCacheStats
from .client import (
    CheckReply,
    ClassifyReply,
    Client,
    DecomposeReply,
    InProcessTransport,
    MonitorReply,
    Reply,
    ShardedTransport,
    Transport,
)
from .requests import (
    CheckRequest,
    ClassifyRequest,
    DecomposeRequest,
    MonitorRequest,
    Request,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
    ServiceTimeout,
)
from .server import AnalysisService, PendingReply
from .sharded import ShardedService
from .warmup import (
    WarmupError,
    load_workload,
    load_workload_data,
    parse_workload,
    random_workload,
    replay_workload,
)
from .wire import WIRE_VERSION, WireError

__all__ = [
    "Request",
    "DecomposeRequest",
    "ClassifyRequest",
    "CheckRequest",
    "MonitorRequest",
    "ServiceResult",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceTimeout",
    "ServiceClosed",
    "ResultCache",
    "ResultCacheInfo",
    "ResultCacheStats",
    "AnalysisService",
    "PendingReply",
    "Client",
    "Reply",
    "DecomposeReply",
    "ClassifyReply",
    "CheckReply",
    "MonitorReply",
    "Transport",
    "InProcessTransport",
    "ShardedTransport",
    "ShardedService",
    "WireError",
    "WIRE_VERSION",
    "load_workload",
    "load_workload_data",
    "parse_workload",
    "replay_workload",
    "random_workload",
    "WarmupError",
]
