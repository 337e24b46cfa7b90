"""The streaming engine: batched ingest, grouped dispatch, shared tables.

:class:`RvEngine` is the serving-shaped front of the paper's monitor
theory.  A deployment registers LTL policies (compiled once through the
LRU :class:`~repro.rv.compile.CompileCache`), opens a session per live
trace, and pushes interleaved ``(session_id, event)`` batches.  Each
batch is:

1. *routed and encoded* — one pass appends each event's table index to
   its session's slice in arrival order (per-session order is the only
   order that matters; sessions are independent), resolving each
   session id once and joining each new session to its compiled
   monitor's group.  No session moves before the whole batch is
   encoded, so a rejected batch leaves every session as it was;
2. *dispatched* — groups run on a thread pool (``workers > 1``) or
   inline (``workers ≤ 1``), so a worker's inner loop stays on one
   transition table (cache-friendly, and the natural sharding unit),
   each session advancing over its slice (:meth:`TraceSession.advance
   <repro.rv.session.TraceSession.advance>`, the one stepping loop).
   Workers never share a session, so the result is deterministic:
   identical to feeding sessions one event at a time, which the test
   suite checks against :class:`~repro.ltl.monitoring.RvMonitor`;
3. *charged* — once per batch, on the ingesting thread: one timed stats
   record, then the moved sessions' verdict transitions in group order.

Python threads don't parallelize the pure-Python table loop (the GIL),
but the pool keeps the engine's shape honest — grouping, isolation and
determinism are exactly what a process pool or a C kernel would need —
and the sequential fallback is the fast path today.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from itertools import chain
from contextlib import nullcontext

from repro.ltl.monitoring import Verdict3
from repro.ltl.syntax import Formula
from repro.obs.trace import RECORDER, Span
from repro.ops.journal import DEBUG, JOURNAL, WARN, EventJournal

from .compile import CompileCache, MonitorTable, outside_alphabet
from .pool import WorkerPool
from .session import SessionManager, TraceSession
from .stats import EngineStats
from .verdicts import BY_SEVERITY, SEVERITY_NAMES

_NO_SPAN = nullcontext()
#: Journal level of a transition into each severity.
_LEVELS = tuple(WARN if verdict.is_final else DEBUG for verdict in BY_SEVERITY)


class RvEngine:
    """A multi-session, multi-policy runtime-verification engine.

    ``horizon`` is the engine-wide default finitary-liveness bound
    (overridable per session in :meth:`open_session`); ``None`` keeps
    waits unbounded.  Four-valued verdict transitions crossing a batch
    are recorded in the stats plane (``repro_rv_verdict_*`` families)
    and, unless the journal's ``min_level`` drops them, journaled as
    ``rv.verdict_transition`` events — severe destinations (safety
    falsified, liveness bound exceeded) at WARN, the chatty flips at
    DEBUG, matching the journal's access-log level convention.

    While :data:`~repro.obs.trace.RECORDER` records, each batch is an
    ``rv.ingest`` :class:`~repro.obs.trace.Span` with one
    ``rv.drain_group`` child per group — parent links survive the worker
    pool because its context copy carries the ingest span to the pool
    thread.  These spans carry no histogram and no request, so they
    exist only for the recorded trace and are not opened otherwise;
    metrics are always on.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        horizon: int | None = None,
        cache: CompileCache | None = None,
        stats: EngineStats | None = None,
        journal: EventJournal | None = JOURNAL,
    ):
        self.cache = cache if cache is not None else CompileCache()
        self.sessions = SessionManager()
        self.horizon = horizon
        self.stats = stats if stats is not None else EngineStats()
        self.journal = journal
        self.pool = WorkerPool(workers, thread_name_prefix="rv-worker",
                               journal=journal)

    # -- registration -------------------------------------------------------

    def open_session(self, session_id, formula: Formula, alphabet: Iterable,
                     horizon: int | None = None) -> TraceSession:
        """Open a trace session against the (cached) compiled policy.

        ``horizon=None`` inherits the engine default; sessions needing a
        different bound pass their own (the monitor is shared either
        way — horizons never reach the compile cache)."""
        session = self.sessions.open(
            session_id, self.cache.get(formula, alphabet),
            self.horizon if horizon is None else horizon,
        )
        self.stats.sessions_opened.add()
        return session

    def close_session(self, session_id) -> Verdict3:
        """Close a session, returning its last verdict."""
        return self.sessions.close(session_id).verdict

    # -- ingest -------------------------------------------------------------

    def ingest(self, events: Iterable[tuple]) -> dict:
        """Feed one batch of interleaved ``(session_id, event)`` pairs.

        Returns ``{session_id: verdict}`` for every session touched by
        the batch.  Raises :class:`~repro.rv.session.SessionError` for
        an unknown id anywhere in the batch, else ``ValueError`` for the
        first foreign symbol — *before* any session of the batch moves,
        so a rejected batch leaves every session exactly as it was.
        """
        if not RECORDER.recording:
            return self._ingest(events, None)
        with Span("rv.ingest") as span:
            return self._ingest(events, span)

    def _ingest(self, events: Iterable[tuple], span: Span | None) -> dict:
        routed: dict[object, tuple] = {}
        groups: dict[MonitorTable, list] = {}
        get = self.sessions.get
        events = iter(events)
        for session_id, event in events:
            slot = routed.get(session_id)
            if slot is None:
                session = get(session_id)
                indices: list[int] = []
                slot = routed[session_id] = (
                    session, indices.append, session.monitor.symbol_index)
                groups.setdefault(session.monitor, []).append((session, indices))
            try:
                slot[1](slot[2][event])
            except (KeyError, TypeError):
                for session_id, _ in events:  # unknown ids raise first
                    get(session_id)
                raise outside_alphabet(event) from None
        if not routed:
            return {}
        start = time.perf_counter()
        drained, stepped, moved = zip(*self.pool.map(
            self._drain_group, list(groups.values())))
        drained = sum(drained)
        stats, journal = self.stats, self.journal
        stats.record_drain(drained, sum(stepped), len(routed),
                           time.perf_counter() - start)
        # per batch, not per event: stepping stays table-only, and the ops
        # plane still sees every state the *caller* could have observed
        for session, was3, was4 in chain.from_iterable(moved):
            verdict3, severity = session._verdict, session._severity
            if verdict3 is not was3:
                stats.record_verdict(verdict3)
            if severity == was4:
                continue
            stats.record_transition(was4, severity,
                                    time.monotonic() - session.opened_at)
            level = _LEVELS[severity]
            if journal is not None and level >= journal.min_level:
                journal.emit("rv.verdict_transition", level,
                             session=repr(session.session_id),
                             **{"from": SEVERITY_NAMES[was4],
                                "to": SEVERITY_NAMES[severity],
                                "events": session.position,
                                "wait": session.wait})
        if span is not None:
            span.set(events=drained, sessions=len(routed), groups=len(groups))
        return {sid: slot[0]._verdict for sid, slot in routed.items()}

    def _drain_group(self, group: list[tuple[TraceSession, list[int]]]
                     ) -> tuple[int, int, list]:
        """Advance one monitor group's sessions over their encoded
        slices — on a pool thread when parallel, in the ingest span's
        context either way; returns the events drained, the table steps
        and each moved session with its verdicts before the batch."""
        with (Span("rv.drain_group") if RECORDER.recording
              else _NO_SPAN) as span:
            drained = stepped = 0
            moved = []
            for session, indices in group:
                # the slots cost one call less than the properties
                was3, was4 = session._verdict, session._severity
                steps = session.advance(indices)
                drained += len(indices)
                stepped += steps
                # a session that took no step cannot have moved
                if steps and (session._verdict is not was3
                              or session._severity != was4):
                    moved.append((session, was3, was4))
            if span is not None:
                span.set(sessions=len(group), events=drained, steps=stepped)
        return drained, stepped, moved

    # -- queries ------------------------------------------------------------

    def verdicts(self) -> dict:
        """Current three-valued verdicts of all open sessions."""
        return self.sessions.verdicts()

    def verdicts4(self) -> dict:
        """Current four-valued verdicts of all open sessions."""
        return self.sessions.verdicts4()

    def snapshot(self) -> dict:
        """Stats dashboard including compile-cache counters."""
        return self.stats.snapshot(self.cache)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "RvEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
