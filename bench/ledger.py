"""The per-layer ledger: each layer's public functions, timed on the
run's own inputs from the benchmark's side.

Every number is one call into one layer.  A ``_self`` number is that
layer's call minus the call one layer down on the same input (taken per
input, then summarised as p50/p99 across inputs), so the layers a
request crosses add up to its latency:

==============================  ===========================================
metric                          timed call (minus, for ``_self``)
==============================  ===========================================
``ltl.translate_us``            ``translate(formula, alphabet)``
``buchi.to_dense_us``           ``B.to_dense()`` (intern) on a fresh ``B``
``automata.kernel_us``          ``reachable_mask`` + ``live_mask`` on B's
                                dense core, ``subset_dfa`` on cl(B)'s
``buchi.facade_self_us``        ``closure`` + ``complement_safety`` +
                                ``union`` − kernel − intern
``analysis.decompose_self_us``  ``decompose()`` − facade − translate
``canonical.key_us``            ``handlers.cache_key(request)``, fresh subject
``service.handlers.self_us``    ``handlers.compute`` − the direct
                                ``decompose``/``classify``/``verify`` call
``service.cache.*_us``          ``ResultCache.get_or_compute`` on a hit,
                                and on a miss with a constant-time compute
                                into a full 512-line cache (one eviction)
``service.server.self_us``      ``AnalysisService(workers=0).request()`` −
                                key + cache hit (inline: no pool handoff)
``service.server.queue_wait_us``  the ``queue`` phase of a default service's
                                reply context
``rv.pool.submit_us``           ``WorkerPool(4).submit(noop).result()``
``service.client.self_us``      in-process ``Client`` verb − server
``service.wire.*``              frame encode/decode of request and reply
``service.sharded.router_self_us``  sharded ``Client`` verb − in-process
                                ``Client`` verb over a default service −
                                the four codec calls
``service.sharded.spawn_s``     ``Client.sharded()`` → every shard answered
                                a ``snapshot()``
``rv.compile.*``                ``CompileCache.get`` cold / warm
``rv.session.observe_ns``       ``TraceSession.observe`` per event, on
                                each policy's own rv-stream traffic
``rv.engine.ingest_self_us``    ``RvEngine(workers=0).ingest`` − the same
                                events stepped through ``TraceSession``
                                (decided sessions replaced untimed)
``rv.engine.pool_self_us``      ``workers=2`` ingest − ``workers=0`` ingest
==============================  ===========================================

Analysis calls take the best of :data:`REPS` fresh-subject calls; warm
serving-path calls the median of :data:`SERVE_REPS`.  Service layers are
priced on the workload's own requests (rv-stream: on the hot working set
of the same seed); rv layers on the rv-stream inputs of the same seed.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.analysis import decompose
from repro.analysis.classify import classify_formula
from repro.automata.kernel import live_mask, reachable_mask, subset_dfa
from repro.buchi.closure import closure
from repro.buchi.complement import complement_safety
from repro.buchi.operations import union
from repro.ltl import parse
from repro.ltl.translate import translate
from repro.rv import CompileCache, TraceSession, WorkerPool
from repro.service import Client, ResultCache, handlers
from repro.service.wire import (
    decode_request,
    decode_result,
    encode_request,
    encode_result,
    pack_frame,
)

from . import inputs
from .common import summary
from .workloads import (
    OP_TIMEOUT_S,
    SHARDS,
    RvRun,
    await_shards,
    sharded_counts,
)

REPS = 2
SERVE_REPS = 5
POOL_SAMPLES = 400
COMPILE_MISS_REPS = 3
COMPILE_HIT_REPS = 20
OBSERVE_BLOCKS = 16
OBSERVE_EVENTS = 256
ENGINE_BATCHES = 256

_SCALE = {"_ns": 1e9, "_us": 1e6, "_ms": 1e3, "_s": 1.0}


def _scale(name: str) -> float:
    for suffix, scale in _SCALE.items():
        if name.endswith(suffix):
            return scale
    return 1.0


def _noop():
    return None


def _kernel_inputs(automaton):
    """B's dense core and cl(B)'s (``None`` when cl(B) is the empty
    automaton, whose complement needs no subset construction)."""
    core = automaton.to_dense().core
    safety = closure(automaton)
    safety_core = (safety.to_dense().core
                   if safety.accepting == safety.states else None)
    return core, safety_core


def _kernel(cores) -> None:
    core, safety_core = cores
    reachable_mask(core)
    live_mask(core)
    if safety_core is not None:
        subset_dfa(safety_core)


def _facade(automaton) -> None:
    union(automaton, complement_safety(closure(automaton)))


def _key_and_hit(cache, request):
    return cache.get_or_compute(handlers.cache_key(request), _noop)


def _step(sessions, events_by_session) -> None:
    for session_id, events in events_by_session.items():
        session = sessions[session_id]
        session.enqueue_many(events)
        session.drain()
        if session.finalized:
            session.reset()


def _observe(session, events) -> None:
    observe = session.observe
    for event in events:
        observe(event)
        if session.finalized:
            session.reset()


class Ledger:
    """Collects per-layer samples (in each metric's unit) and spans."""

    def __init__(self, spans, label: str):
        self.spans = spans
        self.label = label
        self.samples: dict = defaultdict(list)
        self.values: dict = {}
        self._client_s: dict = {}
        self._codec_s: dict = {}

    # -- timing helpers --------------------------------------------------

    def sample(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds * _scale(name))

    def timed(self, name, parent, request_id, call, *args):
        start = time.perf_counter()
        out = call(*args)
        end = time.perf_counter()
        self.spans.add(name, start, end, request_id, parent)
        return end - start, out

    def best(self, name, parent, request_id, make, call) -> float:
        """Best of REPS calls, each on a fresh argument from ``make``."""
        return min(self.timed(name, parent, request_id, call, make())[0]
                   for _ in range(REPS))

    def median(self, name, parent, request_id, call, *args):
        runs = [self.timed(name, parent, request_id, call, *args)
                for _ in range(SERVE_REPS)]
        return statistics.median(dt for dt, _ in runs), runs[-1][1]

    @contextmanager
    def request(self, name: str, request_id):
        span_id = self.spans.new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.add(name, start, time.perf_counter(), request_id,
                           span_id=span_id)

    # -- the layers --------------------------------------------------------

    def analysis(self, specs) -> None:
        for index, spec in enumerate(specs):
            request_id = f"{self.label}-analysis-{index}"
            with self.request("ledger.analysis", request_id) as root:
                self._analysis(spec, root, request_id)

    def _analysis(self, spec, root, request_id) -> None:
        def best(name, make, call):
            return self.best(name, root, request_id, make, call)

        alphabet = spec.alphabet
        translated = 0.0
        automaton = spec.subject
        if spec.formula is not None:
            translated = best("ltl.translate", spec.subject,
                              lambda f: translate(f, alphabet))
            self.sample("ltl.translate_us", translated)

            def automaton():
                return translate(spec.subject(), alphabet)

        if spec.verb == "classify":  # only formulas are ever classified
            below = best("analysis.classify", spec.subject,
                         lambda f: classify_formula(f, alphabet))
        else:
            to_dense = best("buchi.to_dense", automaton,
                            lambda b: b.to_dense())
            kernel = best("automata.kernel",
                          lambda: _kernel_inputs(automaton()), _kernel)
            facade = best("buchi.facade", automaton, _facade)
            below = best("analysis.decompose", spec.subject,
                         lambda s: decompose(s, alphabet=alphabet))
            self.sample("buchi.to_dense_us", to_dense)
            self.sample("automata.kernel_us", kernel)
            self.sample("buchi.facade_self_us", facade - to_dense - kernel)
            self.sample("analysis.decompose_self_us",
                        below - facade - translated)
            if spec.verb == "check":
                below = best(
                    "analysis.check", spec.subject,
                    lambda s: decompose(s, alphabet=alphabet).verify())
        self.sample("canonical.key_us",
                    best("canonical.key", spec.request, handlers.cache_key))
        handler = best("service.handlers", spec.request, handlers.compute)
        self.sample("service.handlers.self_us", handler - below)

    def serving(self, specs) -> None:
        """Warm hits through the in-process service and client, the wire
        codec on the same requests, then the cache alone.

        Server and client self times come from a ``workers=0`` service,
        which runs requests inline: the pool handoff, whose thread wake-up
        jitter is far larger than either layer, is priced on its own by
        :meth:`pool`.  The queue wait and the in-process client time the
        router is compared against come from a default (4-worker) service,
        the one each shard runs.  The pooled pass runs after the inline
        one: a pool thread finishing its task holds the interpreter lock
        against whatever the caller times next."""
        items = [(spec, spec.subject()) for spec in specs]
        keyed = []
        with Client.in_process(workers=0) as client:
            for index, (spec, subject) in enumerate(items):
                spec.call(client, subject, OP_TIMEOUT_S)
                request_id = f"{self.label}-serving-{index}"
                with self.request("ledger.serving", request_id) as root:
                    keyed.append(self._inline(index, spec, subject, client,
                                              root, request_id))
        with Client.in_process() as client:
            for spec, subject in items:
                spec.call(client, subject, OP_TIMEOUT_S)
            for index, (spec, subject) in enumerate(items):
                request_id = f"{self.label}-pooled-{index}"
                with self.request("ledger.pooled", request_id) as root:
                    self._pooled(index, spec, subject, client, root,
                                 request_id)
            stats = client.transport.service.cache.stats()
        self.values.update({
            "service.cache.hit_ratio": stats.hit_ratio,
            "service.cache.evictions": stats.evictions,
            "service.cache.bytes_estimate": stats.bytes_estimate,
        })
        self._cache(keyed)

    def _inline(self, index, spec, subject, client, root, request_id):
        service = client.transport.service
        below, server = [], []
        for _ in range(SERVE_REPS):
            request = spec.request(subject)
            below.append(self.timed("service.cache", root, request_id,
                                    _key_and_hit, service.cache, request)[0])
            dt, result = self.timed("service.server", root, request_id,
                                    service.request, request)
            server.append(dt)
        whole, _ = self.median("service.client", root, request_id,
                               spec.call, client, subject, OP_TIMEOUT_S)
        server_s = statistics.median(server)
        self.sample("service.server.self_us",
                    server_s - statistics.median(below))
        self.sample("service.client.self_us", whole - server_s)
        self._codec_s[index] = self._wire(request, result, root, request_id)
        return handlers.cache_key(request), result.value

    def _pooled(self, index, spec, subject, client, root, request_id):
        queue = []
        for _ in range(SERVE_REPS):
            pending = client.transport.service.submit(spec.request(subject))
            pending.result()
            queue.append(pending.context.phases().get("queue", 0.0))
        self.sample("service.server.queue_wait_us", statistics.median(queue))
        self._client_s[index], _ = self.median(
            "service.client.pooled", root, request_id, spec.call, client,
            subject, OP_TIMEOUT_S)

    def _wire(self, request, result, root, request_id) -> float:
        def request_frame():
            return pack_frame({"id": request_id, "op": "request",
                               "request": encode_request(request),
                               "origin": "client", "trace_id": request_id})

        def reply_frame():
            return pack_frame({"id": request_id, "ok": True,
                               "result": encode_result(result)})

        encode, frame = self.median("service.wire.request_encode", root,
                                    request_id, request_frame)
        decode, _ = self.median(
            "service.wire.request_decode", root, request_id,
            lambda: decode_request(
                json.loads(frame[4:].decode("utf-8"))["request"]))
        reply_encode, reply = self.median("service.wire.reply_encode", root,
                                          request_id, reply_frame)
        reply_decode, _ = self.median(
            "service.wire.reply_decode", root, request_id,
            lambda: decode_result(
                json.loads(reply[4:].decode("utf-8"))["result"], request))
        self.sample("service.wire.request_encode_us", encode)
        self.sample("service.wire.request_decode_us", decode)
        self.sample("service.wire.reply_encode_us", reply_encode)
        self.sample("service.wire.reply_decode_us", reply_decode)
        self.samples["service.wire.request_bytes"].append(len(frame))
        self.samples["service.wire.reply_bytes"].append(len(reply))
        return encode + decode + reply_encode + reply_decode

    def _cache(self, keyed) -> None:
        cache = ResultCache()
        for index in range(cache.maxsize):
            cache.put(f"ledger-fill-{index}", None)
        for index, (key, value) in enumerate(keyed):
            request_id = f"{self.label}-cache-{index}"
            miss, _ = self.timed("service.cache.miss", None, request_id,
                                 cache.get_or_compute, key, lambda: value)
            hit, _ = self.timed("service.cache.hit", None, request_id,
                                cache.get_or_compute, key, lambda: value)
            self.sample("service.cache.miss_self_us", miss)
            self.sample("service.cache.hit_us", hit)

    def pool(self) -> None:
        pool = WorkerPool(4)
        try:
            pool.submit(_noop).result()  # start the executor
            for index in range(POOL_SAMPLES):
                dt, _ = self.timed("rv.pool.submit", None, f"pool-{index}",
                                   lambda: pool.submit(_noop).result())
                self.sample("rv.pool.submit_us", dt)
        finally:
            pool.shutdown()

    def sharded(self, specs) -> None:
        start = time.perf_counter()
        client = Client.sharded(shards=SHARDS)
        self.spans.add("service.sharded.construct", start,
                       time.perf_counter(), "spawn")
        try:
            await_shards(client)
            end = time.perf_counter()
            self.spans.add("service.sharded.spawn", start, end, "spawn")
            self.values["service.sharded.spawn_s"] = end - start
            items = [(spec, spec.subject()) for spec in specs]
            for spec, subject in items:
                spec.call(client, subject, OP_TIMEOUT_S)
            for index, (spec, subject) in enumerate(items):
                request_id = f"{self.label}-sharded-{index}"
                whole, _ = self.median("service.sharded.client", None,
                                       request_id, spec.call, client,
                                       subject, OP_TIMEOUT_S)
                self.sample("service.sharded.router_self_us",
                            whole - self._client_s[index]
                            - self._codec_s[index])
            self.values.update(sharded_counts(client))
        finally:
            client.close()

    def rv(self, seed) -> None:
        stream = inputs.RvStream(seed)
        policies = sorted(set(stream.policy_of))
        alphabet = inputs.ALPHABET
        for policy in policies:
            for rep in range(COMPILE_MISS_REPS):
                dt, _ = self.timed("rv.compile.miss", None,
                                   f"compile-{policy}-{rep}",
                                   CompileCache().get, parse(policy),
                                   alphabet)
                self.sample("rv.compile.miss_ms", dt)
        cache = CompileCache()
        monitors = {policy: cache.get(parse(policy), alphabet)
                    for policy in policies}
        for policy in policies:
            for rep in range(COMPILE_HIT_REPS):
                dt, _ = self.timed("rv.compile.hit", None,
                                   f"compile-{policy}-{rep}",
                                   cache.get, parse(policy), alphabet)
                self.sample("rv.compile.hit_us", dt)
        # each policy's own traffic: the events of its first slot, with a
        # fresh session whenever the verdict is final, as in the workload
        visits = OBSERVE_BLOCKS * OBSERVE_EVENTS * inputs.WINDOW \
            // inputs.BATCH_EVENTS
        masks = stream.masks(visits * inputs.SESSIONS // inputs.WINDOW)
        for policy in policies:
            slot = stream.policy_of.index(policy)
            events = list(stream.trace(slot, masks, 0, len(masks) - 1))
            session = TraceSession(0, monitors[policy],
                                   horizon=inputs.HORIZON)
            for index in range(OBSERVE_BLOCKS):
                block = events[index * OBSERVE_EVENTS:
                               (index + 1) * OBSERVE_EVENTS]
                dt, _ = self.timed("rv.session.observe", None,
                                   f"observe-{policy}-{index}",
                                   _observe, session, block)
                self.sample("rv.session.observe_ns", dt / len(block))
        self._engines(seed, monitors)

    def _engines(self, seed, monitors) -> None:
        """``RvEngine.ingest`` on the rv-stream batches, on a ``workers=0``
        and a ``workers=2`` engine, against the same events stepped
        through bare sessions; every copy replaces the sessions each batch
        decided, untimed."""
        runs = [RvRun(seed, workers) for workers in (0, 2)]
        stream = runs[0].stream
        mirror = [TraceSession(slot, monitors[policy],
                               horizon=inputs.HORIZON)
                  for slot, policy in enumerate(stream.policy_of)]
        try:
            for index, batch in stream.take(ENGINE_BATCHES):
                by_session: dict = defaultdict(list)
                for session, event in batch:
                    by_session[session].append(event)
                request_id = f"{self.label}-ingest-{index}"
                with self.request("ledger.rv.batch", request_id) as root:
                    step, _ = self.timed("rv.session.drain", root,
                                         request_id, _step, mirror,
                                         by_session)
                    inline, verdicts = self.timed(
                        "rv.engine.ingest", root, request_id,
                        runs[0].engine.ingest, batch)
                    pooled, pooled_verdicts = self.timed(
                        "rv.engine.ingest_pooled", root, request_id,
                        runs[1].engine.ingest, batch)
                runs[0].reopen(verdicts)
                runs[1].reopen(pooled_verdicts)
                self.sample("rv.engine.ingest_self_us", inline - step)
                self.sample("rv.engine.pool_self_us", pooled - inline)
        finally:
            for run in runs:
                run.engine.shutdown()

    # -- results -------------------------------------------------------

    def metrics(self) -> tuple[dict, dict]:
        """``{metric: value}`` plus ``{metric: sample summary}``."""
        values = dict(self.values)
        counts = {}
        for name, samples in self.samples.items():
            stats = summary(samples)
            values[f"{name}.p50"] = stats["p50"]
            values[f"{name}.p99"] = stats["p99"]
            counts[name] = stats
        return values, counts


def measure(specs, seed, spans, label: str) -> tuple[dict, dict]:
    """Price every layer on ``specs`` (service layers) and the rv-stream
    inputs of ``seed`` (rv layers)."""
    ledger = Ledger(spans, label)
    ledger.analysis(specs)
    ledger.serving(specs)
    ledger.pool()
    ledger.sharded(specs)
    ledger.rv(seed)
    return ledger.metrics()
