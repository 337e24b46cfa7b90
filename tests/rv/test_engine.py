"""Tests for the streaming engine: batch-vs-sequential equivalence
(property-based, against the reference ``RvMonitor`` and a per-event
replay of the four-valued pipeline), worker-pool determinism, atomic
rejection, stats, and the acceptance workload (100k events, ≥100 sessions, one compile per
distinct formula)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltl import RvMonitor, Verdict3, parse
from repro.ops.journal import DEBUG, WARN, EventJournal
from repro.obs.metrics import MetricRegistry
from repro.rv import (CompileCache, EngineStats, RvEngine, SessionError,
                      TraceSession, Verdict4)

from .test_verdicts import formulas, replay

SPECS = ["G a", "F b", "G (a -> X b)", "GF a", "a & F !a"]
FORMULAS = [parse(s) for s in SPECS]

# shared across tests/examples so formula translation happens once
_CACHE = CompileCache()
_REFERENCE = {s: RvMonitor(parse(s), "ab") for s in SPECS}


def reference_verdict(spec: str, trace) -> Verdict3:
    return _REFERENCE[spec].run(trace)


class TestEngineBasics:
    def test_open_ingest_verdicts(self):
        engine = RvEngine(cache=_CACHE)
        engine.open_session("s1", parse("G a"), "ab")
        engine.open_session("s2", parse("F b"), "ab")
        result = engine.ingest([("s1", "a"), ("s2", "a"), ("s1", "b"), ("s2", "b")])
        assert result == {"s1": Verdict3.FALSE, "s2": Verdict3.TRUE}
        assert engine.verdicts() == result

    def test_unknown_session_rejected(self):
        engine = RvEngine(cache=_CACHE)
        with pytest.raises(SessionError, match="unknown session"):
            engine.ingest([("ghost", "a")])

    def test_close_session_returns_verdict(self):
        engine = RvEngine(cache=_CACHE)
        engine.open_session("s", parse("G a"), "ab")
        engine.ingest([("s", "b")])
        assert engine.close_session("s") is Verdict3.FALSE
        assert "s" not in engine.sessions

    def test_empty_batch(self):
        engine = RvEngine(cache=_CACHE)
        assert engine.ingest([]) == {}

    def test_rejected_batch_is_atomic(self):
        """A batch that fails admission (foreign symbol) leaves every
        session untouched — nothing queued, nothing stepped."""
        engine = RvEngine(cache=_CACHE)
        engine.open_session("s", parse("GF a"), "ab")
        engine.open_session("t", parse("GF a"), "ab")
        with pytest.raises(ValueError, match="outside the alphabet"):
            engine.ingest([("s", "a"), ("t", "a"), ("s", "z")])
        for sid in ("s", "t"):
            session = engine.sessions.get(sid)
            assert session.pending == 0 and session.position == 0
        # a subsequent clean batch applies only its own events
        engine.ingest([("s", "a"), ("t", "b")])
        assert engine.sessions.get("s").position == 1
        assert engine.sessions.get("t").position == 1

    def test_unknown_id_takes_precedence_over_foreign_symbol(self):
        """Whatever their order in the batch, an unknown session id is
        reported before a foreign symbol, and nothing moves."""
        engine = RvEngine(cache=_CACHE)
        engine.open_session("s", parse("GF a"), "ab")
        with pytest.raises(SessionError, match="unknown session"):
            engine.ingest([("s", "a"), ("s", "z"), ("ghost", "a")])
        assert engine.sessions.get("s").position == 0

    def test_unhashable_event_is_outside_the_alphabet(self):
        """An unhashable event is a foreign symbol, not a ``TypeError``:
        the batch is rejected atomically, and the engine and a single
        session word the error alike."""
        engine = RvEngine(cache=_CACHE)
        session = engine.open_session("s", parse("GF a"), "ab")
        engine.open_session("t", parse("GF a"), "ab")
        with pytest.raises(ValueError, match="outside the alphabet") as batch:
            engine.ingest([("t", "a"), ("s", ["a"]), ("s", "b")])
        with pytest.raises(ValueError) as single:
            session.observe(["a"])
        assert str(single.value) == str(batch.value)
        for sid in ("s", "t"):
            assert engine.sessions.get(sid).position == 0

    def test_drain_groups_share_one_table(self, recorder):
        """Touched sessions are grouped by their shared compiled monitor:
        one ``rv.drain_group`` span per monitor in the batch."""
        engine = RvEngine(cache=_CACHE)
        ids = [("safe", i) for i in range(4)] + [("live", i) for i in range(3)]
        for kind, i in ids:
            engine.open_session((kind, i), parse("G a" if kind == "safe"
                                                 else "GF a"), "ab")
        engine.ingest([(sid, "a") for sid in ids])
        groups = [s for s in recorder.finished() if s.name == "rv.drain_group"]
        assert sorted(s.attrs["sessions"] for s in groups) == [3, 4]

    def test_stats_accounting(self):
        engine = RvEngine(cache=CompileCache())
        engine.open_session("s", parse("G a"), "ab")
        engine.ingest([("s", "a"), ("s", "b"), ("s", "a")])  # FALSE after 2
        snap = engine.snapshot()
        assert snap["events"] == 3
        assert snap["steps"] == 2            # third event skipped by truncation
        assert snap["truncation_savings"] == 1
        assert snap["batches"] == 1
        assert snap["verdicts"]["false"] == 1
        assert snap["cache"] == {"hits": 0, "misses": 1, "size": 1, "maxsize": 256}


@st.composite
def workloads(draw):
    """An interleaved event stream over a few sessions plus batch cuts."""
    n_sessions = draw(st.integers(min_value=1, max_value=4))
    assignments = [draw(st.sampled_from(SPECS)) for _ in range(n_sessions)]
    stream = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_sessions - 1),
                st.sampled_from("ab"),
            ),
            max_size=60,
        )
    )
    batch_size = draw(st.integers(min_value=1, max_value=16))
    return assignments, stream, batch_size


class TestBatchSequentialEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(workloads())
    def test_any_interleaving_matches_one_at_a_time_reference(self, workload):
        """Core property: any interleaving of session events, cut into
        any batches, yields exactly the verdicts of feeding each
        session's own trace to the reference ``RvMonitor``."""
        assignments, stream, batch_size = workload
        engine = RvEngine(cache=_CACHE)
        for i, spec in enumerate(assignments):
            engine.open_session(i, parse(spec), "ab")
        for k in range(0, len(stream), batch_size):
            engine.ingest(stream[k : k + batch_size])
        for i, spec in enumerate(assignments):
            trace = [e for sid, e in stream if sid == i]
            assert engine.sessions.get(i).verdict is reference_verdict(spec, trace)
            assert engine.sessions.get(i).position == len(trace)

    @settings(max_examples=25, deadline=None)
    @given(workloads())
    def test_worker_pool_is_deterministic(self, workload):
        """The thread pool changes scheduling, never results: parallel
        and sequential dispatch agree verdict-for-verdict and step-for-
        step."""
        assignments, stream, batch_size = workload
        outcomes = []
        for workers in (0, 4):
            with RvEngine(cache=_CACHE, workers=workers) as engine:
                for i, spec in enumerate(assignments):
                    engine.open_session(i, parse(spec), "ab")
                for k in range(0, len(stream), batch_size):
                    engine.ingest(stream[k : k + batch_size])
                outcomes.append(
                    (engine.verdicts(), engine.stats.events.value,
                     engine.stats.steps.value)
                )
        assert outcomes[0] == outcomes[1]


@st.composite
def finitary_workloads(draw):
    """Random policies with per-session horizons, an interleaved stream
    and arbitrary batch cuts."""
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    assignments = [
        (draw(st.sampled_from(FORMULAS) | formulas(max_depth=2)),
         draw(st.sampled_from((None, 0, 1, 2, 3, 4, 5))))
        for _ in range(n_sessions)
    ]
    # a drawn length: plain lists stay a few events long, too short to
    # reach most horizons
    length = draw(st.integers(min_value=0, max_value=60))
    stream = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_sessions - 1),
                st.sampled_from("ab"),
            ),
            min_size=length,
            max_size=length,
        )
    )
    cuts = draw(st.lists(st.integers(min_value=0, max_value=len(stream)),
                         max_size=6))
    return assignments, stream, sorted(cuts)


class TestEngineMatchesReplay:
    @settings(max_examples=60, deadline=None)
    @given(finitary_workloads(), st.sampled_from((0, 2)))
    def test_ingest_matches_per_event_replay(self, workload, workers):
        """After any batching, every session's four-valued verdict,
        position and longest wait equal a replay of its own trace
        through the per-event ``MonitorTable.step`` /
        ``BoundTracker.good_edge``/``step`` API."""
        assignments, stream, cuts = workload
        with RvEngine(cache=_CACHE, workers=workers) as engine:
            for i, (formula, horizon) in enumerate(assignments):
                engine.open_session(i, formula, "ab", horizon=horizon)
            bounds = [0, *cuts, len(stream)]
            for lo, hi in zip(bounds, bounds[1:]):
                engine.ingest(stream[lo:hi])
            for i, (_, horizon) in enumerate(assignments):
                trace = [e for sid, e in stream if sid == i]
                session = engine.sessions.get(i)
                expected = replay(session.monitor, trace, horizon)
                assert session.verdict4 is expected.verdict4
                assert session.position == len(trace)
                assert session.max_wait == expected.max_wait


TRANSITION_FIELDS = ("session", "from", "to", "events", "wait")


def per_session_accounting(sessions: dict, batches) -> dict:
    """The reference for the engine's batch-level charging: route each
    batch into per-session slices and monitor groups as the engine does,
    then advance each session over its slice and book its drain, its
    definite verdict and its four-valued transition one session at a
    time."""
    totals = Counter()
    verdicts = {kind.value: 0 for kind in Verdict3}
    verdicts4 = {kind.value: 0 for kind in Verdict4}
    transitions = []
    for batch in batches:
        routed: dict = {}
        for sid, event in batch:
            routed.setdefault(sid, []).append(event)
        if not routed:
            continue
        totals["batches"] += 1
        groups: dict = {}
        for sid, events in routed.items():
            groups.setdefault(id(sessions[sid].monitor), []).append(
                (sessions[sid], events))
        for group in groups.values():
            for session, events in group:
                was_final, before = session.finalized, session.verdict4
                totals["steps"] += session.advance(session.encode(events))
                totals["events"] += len(events)
                totals["drains"] += 1
                if session.finalized and not was_final:
                    verdicts[session.verdict.value] += 1
                after = session.verdict4
                if after is not before:
                    verdicts4[after.value] += 1
                    transitions.append((WARN if after.is_final else DEBUG,
                                        repr(session.session_id),
                                        before.value, after.value,
                                        session.position, session.wait))
    return {"totals": totals, "verdicts": verdicts, "verdicts4": verdicts4,
            "transitions": transitions}


class TestGroupAccounting:
    @settings(max_examples=60, deadline=None)
    @given(finitary_workloads(), st.sampled_from((0, 2)))
    def test_batch_charging_matches_per_session_reference(self, workload,
                                                          workers):
        """Charging the stepping counters once per batch, and recording
        only the sessions whose verdict moved, books exactly what the
        per-session loop books: the same snapshot totals, the same
        registry families, label sets and counts, the same journaled
        transitions in the same order whatever ``workers`` is, and one
        latency sample per batch."""
        assignments, stream, cuts = workload
        bounds = [0, *cuts, len(stream)]
        batches = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        journal = EventJournal(min_level="debug")
        registry = MetricRegistry()
        stats = EngineStats(registry=registry, engine="e")
        with RvEngine(cache=_CACHE, workers=workers, journal=journal,
                      stats=stats) as engine:
            mirror = {}
            for i, (formula, horizon) in enumerate(assignments):
                session = engine.open_session(i, formula, "ab",
                                              horizon=horizon)
                mirror[i] = TraceSession(i, session.monitor, horizon=horizon)
            for batch in batches:
                engine.ingest(batch)
            snapshot = engine.snapshot()
        expected = per_session_accounting(mirror, batches)
        totals = expected["totals"]
        for key in ("events", "steps", "drains", "batches"):
            assert snapshot[key] == totals[key], key
        assert snapshot["verdicts"] == expected["verdicts"]
        assert snapshot["verdicts4"] == expected["verdicts4"]
        assert sorted(snapshot["verdict_latency_us"]) == sorted(
            name for name, count in expected["verdicts4"].items() if count)
        assert stats.step_latency.count == totals["batches"]
        assert registry_counts(registry) == expected_registry_counts(
            len(assignments), expected)
        journaled = [
            (event.level,
             *(dict(event.fields)[key] for key in TRANSITION_FIELDS))
            for event in journal.events(name="rv.verdict_transition")
        ]
        assert journaled == expected["transitions"]

    def test_filtered_transitions_are_counted_but_not_journaled(self):
        """At the default ``info`` level the DEBUG flips are counted
        but not journaled; the WARN ones are both."""
        journal = EventJournal()
        with RvEngine(cache=_CACHE, journal=journal, horizon=1) as engine:
            engine.open_session("live", parse("GF a"), "ab")
            engine.open_session("safe", parse("G a"), "ab")
            engine.ingest([("live", "b"), ("safe", "a")])
            engine.ingest([("live", "a"), ("safe", "b")])
            engine.ingest([("live", "b"), ("live", "b"), ("live", "b")])
            verdicts4 = engine.snapshot()["verdicts4"]
        journaled = [(event.level, dict(event.fields)["session"],
                      dict(event.fields)["to"])
                     for event in journal.events(name="rv.verdict_transition")]
        assert journaled == [(WARN, "'safe'", "falsified_safety"),
                             (WARN, "'live'", "liveness_bound_exceeded")]
        assert verdicts4["falsified_safety"] == 1
        assert verdicts4["liveness_bound_exceeded"] == 1
        assert sum(verdicts4.values()) > len(journaled)


def registry_counts(registry) -> dict:
    """``{(family, labels): count}`` of every sample in ``registry``."""
    return {
        (family["name"], tuple(sorted(sample["labels"].items()))):
            sample.get("count", sample.get("value"))
        for family in registry.to_dict().values()
        for sample in family["samples"]
    }


def expected_registry_counts(opened: int, expected: dict) -> dict:
    """What :func:`registry_counts` must read for engine ``"e"`` after
    the per-session reference's workload."""
    totals = expected["totals"]
    engine = (("engine", "e"),)
    counts = {
        ("repro_rv_events_total", engine): totals["events"],
        ("repro_rv_steps_total", engine): totals["steps"],
        ("repro_rv_batches_total", engine): totals["batches"],
        ("repro_rv_drains_total", engine): totals["drains"],
        ("repro_rv_sessions_opened_total", engine): opened,
        ("repro_rv_step_latency_seconds", engine): totals["batches"],
    }
    for kind, count in expected["verdicts"].items():
        counts["repro_rv_verdicts_total",
               (*engine, ("verdict", kind))] = count
    edges = Counter((old, new) for _, _, old, new, _, _
                    in expected["transitions"])
    for (old, new), count in edges.items():
        counts["repro_rv_verdict_transitions_total",
               (*engine, ("from", old), ("to", new))] = count
    for kind, count in expected["verdicts4"].items():
        if count:
            counts["repro_rv_verdict_latency_seconds",
                   (*engine, ("verdict", kind))] = count
    return counts


class TestAcceptanceWorkload:
    def test_100k_events_100_sessions_single_compile_per_formula(self):
        """The ISSUE's acceptance bar: a 100k-event synthetic workload
        across ≥100 concurrent sessions; compilation runs once per
        distinct formula (cache counters prove reuse); batch verdicts
        are bit-identical to the sequential reference."""
        n_sessions, trace_len = 120, 840            # 100,800 events
        rng = random.Random(2003)
        cache = CompileCache()
        engine = RvEngine(cache=cache, workers=4)
        traces = {}
        for i in range(n_sessions):
            spec = SPECS[i % len(SPECS)]
            engine.open_session(i, parse(spec), "ab")
            traces[i] = [rng.choice("ab") for _ in range(trace_len)]
        # round-robin interleaving, fed in 4096-event batches
        stream = [
            (i, traces[i][j]) for j in range(trace_len) for i in range(n_sessions)
        ]
        for k in range(0, len(stream), 4096):
            engine.ingest(stream[k : k + 4096])

        assert engine.stats.events.value == n_sessions * trace_len >= 100_000
        info = cache.info()
        assert info.misses == len(SPECS)            # one compile per formula
        assert info.hits == n_sessions - len(SPECS)  # every other open reused
        for i in range(n_sessions):
            expected = reference_verdict(SPECS[i % len(SPECS)], traces[i])
            assert engine.sessions.get(i).verdict is expected
        engine.shutdown()

    def test_acceptance_workload_exhibits_all_four_verdicts(self):
        """The PR-10 acceptance bar on top: under a finitary horizon the
        same style of workload must exhibit every verdict of the
        four-valued lattice, and the engine's batched verdicts must
        match the one-shot ``run_finitary`` reference per session."""
        from repro.rv.compile import compile_formula
        from repro.rv.verdicts import Verdict4

        n_sessions, trace_len, horizon = 120, 840, 6
        rng = random.Random(2003)
        cache = CompileCache()
        engine = RvEngine(cache=cache, workers=4, horizon=horizon)
        traces = {}
        for i in range(n_sessions):
            engine.open_session(i, parse(SPECS[i % len(SPECS)]), "ab")
            traces[i] = [rng.choice("ab") for _ in range(trace_len)]
        stream = [
            (i, traces[i][j]) for j in range(trace_len) for i in range(n_sessions)
        ]
        for k in range(0, len(stream), 4096):
            engine.ingest(stream[k : k + 4096])

        final = engine.verdicts4()
        assert set(final.values()) == set(Verdict4)
        monitors = {s: compile_formula(parse(s), "ab") for s in SPECS}
        for i in range(n_sessions):
            oneshot = monitors[SPECS[i % len(SPECS)]].run_finitary(
                traces[i], horizon=horizon
            )
            assert final[i] is oneshot.verdict
            assert engine.sessions.get(i).max_wait == oneshot.max_wait
        engine.shutdown()
