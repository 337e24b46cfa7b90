"""The sharded analysis tier: N worker processes behind one router.

Python threads cannot parallelize the dense decomposition kernels (the
GIL), so one :class:`~repro.service.server.AnalysisService` caps out at
roughly one core.  This package scales *out* instead of up:

* :mod:`repro.service.sharded.ring` — consistent hashing from canonical
  cache keys to shard indices.  Shard affinity is the point: every
  isomorphism class of subjects always lands on the same shard, so each
  shard's isomorphism-aware :class:`~repro.service.cache.ResultCache`
  stays naturally hot, and N shards hold N× the aggregate working set
  with zero cross-shard coordination (shared-nothing).
* :mod:`repro.service.sharded.worker` — one worker process: today's
  ``AnalysisService`` (worker pool, result cache, certificate
  verify-on-hit) behind the length-prefixed JSON wire protocol of
  :mod:`repro.service.wire`, frames on stdin/stdout.
* :mod:`repro.service.sharded.router` — the front-end:
  :class:`ShardedService` spawns the workers, routes by
  ``canonical_key()``, health-checks and respawns dead shards (with
  warm-start replication and bounded at-least-once redelivery for
  idempotent requests; at-most-once for ``certify=True``), and
  aggregates readiness, cache stats, in-flight tables and slow logs for
  the ops plane.  It runs on plain threads: each caller's thread writes
  its own request frame, one reader thread per shard owns that shard's
  replies and its exit path, and one health thread probes readiness.
  ``submit()`` never blocks on shard readiness, and a shard counts as
  ready only once it has answered a ``ping``.

Most callers should not import this package directly — construct a
:class:`repro.service.client.Client` over a ``ShardedTransport`` and
speak the one client API regardless of deployment shape.
"""

from .ring import HashRing
from .router import ShardedService, ShardReply

__all__ = [
    "HashRing",
    "ShardReply",
    "ShardedService",
]
