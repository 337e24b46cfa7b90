"""The four workloads: set-up, the timed closed loop, and the answer checks.

A run sets its workload up :data:`SETUPS` times and measures with the
last set-up (``setup_s`` is the median of three import times, see
``bench/run.py``, plus the median set-up, each scaled to the reference
speed by :func:`~bench.common.speed_scale` readings around it).  One
load thread then sends ops one at a time for ``--seconds`` seconds of
clock time.  The clock stops while cold-mixed and rv-stream build their
next epoch of inputs, so input generation never counts as program time,
and while the reference block timed before each op runs
(:func:`scaled`).  After the clock stops the run reads peak memory,
closes the program, and checks every answer it kept against references
computed by direct library calls on fresh subjects.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array
from collections import Counter

from repro.canonical import CanonicalizationError
from repro.ltl import parse
from repro.ltl.monitoring import Verdict3
from repro.obs.metrics import REGISTRY
from repro.rv import RvEngine
from repro.rv.compile import compile_formula
from repro.service import Client

from . import inputs
from .common import (REFERENCE_BLOCKS, REFERENCE_S, reference_seconds,
                     rss_peak_mb, speed_scale, summary)

SHARDS = 2
SETUPS = 3
#: A Client verb that takes longer than this counts as failed.
OP_TIMEOUT_S = 60.0
#: Requests / batches built per clock stop.
EPOCH_REQUESTS = 1024
EPOCH_BATCHES = 512
#: cold-mixed warms its service with this many cold requests of its own.
WARM_REQUESTS = 64
#: Decompose answers, and rv-stream's closed sessions, are checked on a
#: seeded 1-in-8 sample of at most MAX_SAMPLED (classify/check answers
#: and open rv sessions: all of them).
SAMPLE_RATE = 1 / 8
MAX_SAMPLED = 128
#: The clock's run is cut into SLICES equal slices.  The traced pass
#: traces the odd slices only and compares their op rate with the even
#: ones'; every run records each slice's op rate.
SLICES = 8
#: An op's speed is read from the reference blocks of this many ops
#: around it (see :func:`scaled`).
SPEED_WINDOW = 5
#: Latency slots, allocated before the clock starts: a buffer that grew
#: with the op count would make the benchmark's own memory, and so
#: ``rss_peak_mb``, follow the op rate.
LATENCY_SLOTS = 1 << 20


class Lane:
    """The load thread's record of a run."""

    def __init__(self, seed):
        self.latencies = array("f", [0.0]) * LATENCY_SLOTS  # seconds
        #: CPU seconds the reference block took just before each op
        self.references = array("f", [0.0]) * LATENCY_SLOTS
        self.completed = 0
        self.bounds = [0]  # ops completed when each slice ended
        self.failed = 0
        self.errors: list[str] = []
        self.answers: Counter = Counter()   # (spec, answer) -> ops
        self.sampled: list[tuple] = []      # (spec, decomposition)
        self.rng = random.Random(f"sample:{seed}")
        self.spans: list[tuple] = []  # (name, request_id, start, end, tid)


def _measure(workload, handle, lane: Lane, seconds: float, traced: bool,
             block) -> list[float]:
    """Send ops one at a time for ``seconds`` seconds of clock time, cut
    into SLICES slices, timing the reference ``block`` before each;
    returns the clock time of each slice."""
    perf = time.perf_counter
    op, note = workload.op(handle), workload.note
    latencies, references = lane.latencies, lane.references
    slice_s = seconds / SLICES
    source = iter(())
    count = 0
    active = []
    for part in range(SLICES):
        trace = traced and part % 2
        spent = 0.0
        while spent < slice_s:
            start = perf()
            deadline = start + slice_s - spent
            for item in source:
                paused = perf()
                reference = reference_seconds(block)
                began = perf()
                deadline += began - paused
                spent -= began - paused
                try:
                    reply = op(item)
                    ended = perf()
                    note(lane, item, reply)
                except Exception as exc:  # noqa: BLE001 — a failed op is a measurement
                    ended = perf()
                    lane.failed += 1
                    if len(lane.errors) < 5:
                        lane.errors.append(f"{type(exc).__name__}: {exc}")
                else:
                    if count < LATENCY_SLOTS:
                        latencies[count] = ended - began
                        references[count] = reference
                    else:
                        latencies.append(ended - began)
                        references.append(reference)
                    count += 1
                    if trace:
                        lane.spans.append((*workload.label(item, reply),
                                           began, ended, 1))
                if ended >= deadline:
                    break
            else:  # the epoch ran dry: build the next with the clock stopped
                spent += perf() - start
                source = iter(workload.epoch(handle))
                continue
            spent += perf() - start
        lane.bounds.append(count)
        active.append(spent)
    lane.completed = count
    return active


def scaled(lane: Lane) -> list[float]:
    """Each op's latency at the reference speed.

    A virtual CPU's speed can change within a second by half or more as
    other tenants of its host come and go.  The reference block before
    each op reads that speed, so each latency is scaled by REFERENCE_S
    over the median block time of the SPEED_WINDOW ops around it; the
    median keeps a block that an interrupt slowed from setting an op's
    scale."""
    half = SPEED_WINDOW // 2
    references = lane.references[:lane.completed]
    out = []
    for index, latency in enumerate(lane.latencies[:lane.completed]):
        window = sorted(references[max(0, index - half):index + half + 1])
        out.append(latency * REFERENCE_S / window[len(window) // 2])
    return out


def _timings(latencies, setup_s: float) -> dict:
    """The end-to-end timings of one sequential client's latencies."""
    stats = summary(latencies)
    return {
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "op_p50_us": stats["p50"] * 1e6,
        "op_p99_us": stats["p99"] * 1e6,
        "setup_s": setup_s,
    }


def run(name: str, seed, seconds: float, traced: bool, imports) -> dict:
    """Set up, measure and check one workload; returns the run's numbers.
    ``imports`` holds SETUPS import times, each ``(as measured, at the
    reference speed)``."""
    workload, block = WORKLOADS[name](seed), REFERENCE_BLOCKS[name]
    setups = []  # (as measured, at the reference speed)
    for attempt in range(SETUPS):
        before = speed_scale(block)
        began = time.perf_counter()
        handle = workload.open()
        spent = time.perf_counter() - began
        setups.append((spent, spent * (before + speed_scale(block)) / 2))
        if attempt < SETUPS - 1:
            workload.close(handle)
    lane = Lane(seed)
    try:
        active = _measure(workload, handle, lane, seconds, traced, block)
        rss = rss_peak_mb(workload.pids(handle))
        counts = workload.counts(handle) if traced else {}
    finally:
        workload.close(handle)
    checked, wrong, notes = workload.verify(handle, lane)
    notes.extend(lane.errors)

    raw = lane.latencies[:lane.completed]
    latencies = scaled(lane)
    median = statistics.median
    setup_raw, setup_s = (
        median(pair[side] for pair in imports)
        + median(pair[side] for pair in setups) for side in (0, 1))
    rates = [(lane.bounds[part + 1] - lane.bounds[part]) / spent
             for part, spent in enumerate(active)]
    result = {
        "workload": name,
        "attempted": lane.completed + lane.failed,
        "failed": lane.failed + wrong,
        "checked": checked,
        "notes": notes[:20],
        "setups_s": setups,
        "active_s": sum(active),
        "slice_rates": rates,
        "reference_us": median(lane.references[:lane.completed]) * 1e6,
        "latency": summary(latencies),
        "unscaled": _timings(raw, setup_raw),
        "end_to_end": {**_timings(latencies, setup_s), "rss_peak_mb": rss},
        "counts": counts,
        "spans": lane.spans,
    }
    if traced:
        result["trace_overhead"] = median(rates[0::2]) / median(rates[1::2])
    result["ledger_specs"] = workload.ledger_specs()
    return result


# -- the service workloads -----------------------------------------------------


def await_shards(client, timeout: float = 120.0) -> None:
    """Block until every shard has answered a ``snapshot()``.

    The router marks shards ready as soon as their processes start,
    before the workers have imported anything, so readiness alone would
    end set-up early."""
    deadline = time.perf_counter() + timeout
    while len(client.snapshot()["shards"]) < SHARDS:
        if time.perf_counter() > deadline:
            raise RuntimeError(f"not every shard answered in {timeout}s")


def sharded_counts(client) -> dict:
    """Redeliveries and shard deaths (process-wide counters) and the
    lowest per-shard cache hit ratio."""
    families = REGISTRY.to_dict()

    def total(family: str) -> float:
        return sum(sample["value"]
                   for sample in families.get(family, {}).get("samples", ()))

    by_shard = client.transport.service.cache.stats_by_shard()
    return {
        "service.sharded.redeliveries":
            total("repro_service_sharded_redelivered_total"),
        "service.sharded.shard_deaths":
            total("repro_service_sharded_deaths_total"),
        "service.sharded.hit_ratio_min":
            min(stats.hit_ratio for stats in by_shard.values()),
    }


class _Service:
    """Client verbs from one closed-loop client; an item is a
    ``(spec, subject)`` pair."""

    sharded = False

    def op(self, client):
        return lambda item: item[0].call(client, item[1], OP_TIMEOUT_S)

    def note(self, lane: Lane, item, reply) -> None:
        spec = item[0]
        if spec.verb == "classify":
            lane.answers[spec, reply.property_class.name] += 1
        elif spec.verb == "check":
            lane.answers[spec, reply.holds] += 1
        elif (len(lane.sampled) < MAX_SAMPLED
              and lane.rng.random() < SAMPLE_RATE):
            lane.sampled.append((spec, reply.value))

    def label(self, item, reply) -> tuple:
        return item[0].verb, reply.request_id

    def pids(self, client):
        return client.transport.service.shard_pids() if self.sharded else ()

    def close(self, client) -> None:
        client.close()

    def counts(self, client) -> dict:
        stats = client.transport.service.cache.stats()
        counts = {
            "service.cache.hit_ratio": stats.hit_ratio,
            "service.cache.evictions": stats.evictions,
            "service.cache.bytes_estimate": stats.bytes_estimate,
        }
        if self.sharded:
            counts.update(sharded_counts(client))
        return counts

    def verify(self, client, lane) -> tuple[int, int, list]:
        refs: dict = {}
        parts_of: dict = {}
        checked = wrong = 0
        notes = []

        def reference(spec):
            if spec not in refs:
                refs[spec] = inputs.reference(spec)
            return refs[spec]

        for (spec, answer), ops in lane.answers.items():
            checked += ops
            if reference(spec) != answer:
                wrong += ops
                notes.append(f"{spec.verb} {spec.formula}: served "
                             f"{answer!r}, reference {refs[spec]!r}")
        for spec, value in lane.sampled:
            try:
                expected = reference(spec)
                if id(value) not in parts_of:
                    parts_of[id(value)] = inputs.parts_key(value)
            except CanonicalizationError:
                continue  # key budget exhausted: not comparable
            checked += 1
            if parts_of[id(value)] != expected:
                wrong += 1
                notes.append(f"decompose {spec.formula or 'buchi'}: "
                             "parts differ from the reference")
        return checked, wrong, notes


class HotWorkload(_Service):
    """The 160-request working set, warmed during set-up, so every op is
    a cache hit; each epoch is one pass over it."""

    def __init__(self, seed, sharded: bool):
        self.sharded = sharded
        self.specs = inputs.hot_working_set(seed)
        # every pass sends these same subject objects
        self.items = [(spec, spec.subject()) for spec in self.specs]

    def open(self):
        client = (Client.sharded(shards=SHARDS) if self.sharded
                  else Client.in_process())
        try:
            if self.sharded:
                await_shards(client)
            for spec, subject in self.items:
                spec.call(client, subject, OP_TIMEOUT_S)
        except BaseException:
            client.close()
            raise
        return client

    def epoch(self, client):
        return self.items

    def ledger_specs(self):
        return self.specs


class ColdWorkload(_Service):
    """Fresh subjects from :class:`~bench.inputs.ColdStream`, built one
    epoch at a time."""

    LEDGER_REQUESTS = 128

    def __init__(self, seed):
        self.seed = seed
        self.stream = inputs.ColdStream(seed)

    def open(self):
        client = Client.in_process()
        try:
            warm = inputs.ColdStream(f"warm:{self.seed}")
            for spec in warm.take(WARM_REQUESTS):
                spec.call(client, spec.subject(), OP_TIMEOUT_S)
        except BaseException:
            client.close()
            raise
        return client

    def epoch(self, client):
        return [(spec, spec.subject())
                for spec in self.stream.take(EPOCH_REQUESTS)]

    def ledger_specs(self):
        return inputs.ColdStream(self.seed).take(self.LEDGER_REQUESTS)


class RvRun:
    """An engine under rv-stream traffic: 256 session slots, each holding
    one open session at a time.

    When a batch makes a session's verdict final, the session is closed
    and a fresh one over the same policy opens in its slot, as monitors
    of per-request traces do.  The run books which batches the engine
    took and where each session began, so the answers can be checked
    afterwards without keeping the events."""

    def __init__(self, seed, workers: int = 0):
        self.stream = inputs.RvStream(seed)
        self.engine = RvEngine(workers=workers, horizon=inputs.HORIZON)
        self.formula_of = tuple(parse(policy)
                                for policy in self.stream.policy_of)
        self.sessions = [
            self.engine.open_session(slot, formula, inputs.ALPHABET)
            for slot, formula in enumerate(self.formula_of)
        ]
        #: per slot, the index of the batch after which its session opened
        self.opened_after = [-1] * inputs.SESSIONS
        #: sampled closed sessions: (slot, first, last batch, verdicts)
        self.closed: list[tuple] = []
        self.taken = 0          # batches up to the last one taken
        self.skipped: list[int] = []
        self._rng = random.Random(f"rv-sample:{seed}")

    def reopen(self, verdicts: dict) -> list[tuple]:
        """Close every session whose verdict ``verdicts`` shows final and
        open a fresh one in its slot; returns ``(slot, verdict3,
        verdict4)`` of each closed session."""
        engine, sessions = self.engine, self.sessions
        closed = []
        for slot, verdict in verdicts.items():
            if verdict is not Verdict3.UNKNOWN:
                closed.append((slot, verdict, sessions[slot].verdict4))
                engine.close_session(slot)
                sessions[slot] = engine.open_session(
                    slot, self.formula_of[slot], inputs.ALPHABET)
        return closed

    def ingest(self, events) -> list[tuple]:
        """One op: ingest a batch, then replace the sessions it decided."""
        return self.reopen(self.engine.ingest(events))

    def book(self, index: int, closed) -> None:
        """Batch ``index`` was taken and closed ``closed``: keep a seeded
        1-in-8 sample of the closed sessions (at most MAX_SAMPLED)."""
        self.skipped.extend(range(self.taken, index))
        self.taken = index + 1
        for slot, verdict3, verdict4 in closed:
            if (len(self.closed) < MAX_SAMPLED
                    and self._rng.random() < SAMPLE_RATE):
                self.closed.append((slot, self.opened_after[slot] + 1,
                                    index, verdict3, verdict4))
            self.opened_after[slot] = index

    def describe(self) -> str:
        """How the engine spent the run: the share of events stepped
        through the tables (the rest were dropped after a final verdict)
        and the sessions replaced per ingest."""
        snapshot = self.engine.snapshot()
        stepped = snapshot["steps"] / snapshot["events"]
        replaced = ((snapshot["sessions_opened"] - inputs.SESSIONS)
                    / snapshot["batches"])
        return (f"{stepped:.1%} of events stepped, {replaced:.2f} sessions "
                "replaced per ingest")

    def verify(self) -> tuple[int, int, list]:
        """The sampled closed sessions' and every open session's three-
        and four-valued verdicts against ``compile_formula(...)
        .run_finitary`` over the events the session was sent."""
        stream = self.stream
        masks = stream.masks(self.taken)
        skipped = set(self.skipped)
        last = self.taken - 1
        verdicts3, verdicts4 = self.engine.verdicts(), self.engine.verdicts4()
        cases = list(self.closed) + [
            (slot, self.opened_after[slot] + 1, last, verdicts3[slot],
             verdicts4[slot])
            for slot in range(inputs.SESSIONS)
        ]
        monitors = {policy: compile_formula(parse(policy), inputs.ALPHABET)
                    for policy in inputs.POLICIES}
        wrong = 0
        notes = []
        for slot, first, end, verdict3, verdict4 in cases:
            policy = stream.policy_of[slot]
            expected = monitors[policy].run_finitary(
                stream.trace(slot, masks, first, end, skipped),
                horizon=inputs.HORIZON)
            if (expected.verdict is not verdict4
                    or expected.verdict3 is not verdict3):
                wrong += 1
                notes.append(f"slot {slot} ({policy}), batches {first}-{end}:"
                             f" {verdict4}, reference {expected.verdict}")
        return len(cases), wrong, notes


class RvWorkload:
    """One producer ingesting 256-event batches into
    ``RvEngine(horizon=6)`` with 256 sessions open, replacing each
    session its batch decided (:class:`RvRun`).

    The engine runs with its default ``workers=0``.  With ``workers=2``
    the ingest latency flips between two levels as the pool threads'
    cross-CPU wake-ups come and go, so the rate moves between runs of the
    same code by more than the benchmark's bound; the pool's cost is
    priced per layer instead (``rv.engine.pool_self_us``)."""

    def __init__(self, seed):
        self.seed = seed
        self.current = None

    def open(self):
        run = RvRun(self.seed)
        try:
            for index, events in run.stream.take(
                    inputs.SESSIONS // inputs.WINDOW):
                run.book(index, run.ingest(events))
        except BaseException:
            run.engine.shutdown()
            raise
        self.current = run
        return run

    def close(self, run) -> None:
        run.engine.shutdown()

    def op(self, run):
        ingest = run.ingest
        return lambda item: ingest(item[1])

    def epoch(self, run):
        return run.stream.take(EPOCH_BATCHES)

    def note(self, lane, item, reply) -> None:
        self.current.book(item[0], reply)

    def label(self, item, reply) -> tuple:
        return "ingest", item[0]

    def pids(self, run):
        return ()

    def counts(self, run) -> dict:
        return {}

    def verify(self, run, lane) -> tuple[int, int, list]:
        checked, wrong, notes = run.verify()
        return checked, wrong, [run.describe()] + notes

    def ledger_specs(self):
        return inputs.hot_working_set(self.seed)


WORKLOADS = {
    "hot-inproc": lambda seed: HotWorkload(seed, sharded=False),
    "hot-sharded": lambda seed: HotWorkload(seed, sharded=True),
    "cold-mixed": ColdWorkload,
    "rv-stream": RvWorkload,
}
