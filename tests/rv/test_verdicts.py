"""The four-valued verdict lattice and its semantic ground truth.

Three properties tie the streaming verdicts back to the paper:

* ``FALSIFIED_SAFETY`` exactly when the prefix is a *bad prefix* — no
  extension satisfies the policy (the offline decision, computed from
  the good-prefix DFA of ``A_φ``);
* waits are bounded: ``max_wait ≤ horizon + 1``, and the latch fires
  iff some wait exceeded the horizon (finitary liveness as a safety
  property of the prefix);
* the decomposed pipeline is three-valued-equivalent to the direct
  ``translate() → SubsetTable → product`` compilation on every prefix
  (decomposition changes what the monitor can *say*, never what it
  decides).
"""

import random
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import SubsetTable
from repro.buchi.safety import is_bad_prefix
from repro.ltl import F, G, Next, Not, Release, Until, sym
from repro.ltl.monitoring import Verdict3
from repro.ltl.translate import translate
from repro.rv.compile import MonitorTable, compile_formula
from repro.rv.session import TraceSession
from repro.rv.verdicts import SEVERITY, MonitorOutcome, Verdict4, most_severe

A, B = sym("a"), sym("b")
ALPHABET = ("a", "b")


@st.composite
def formulas(draw, max_depth=3):
    """A small LTL formula over {a, b}."""
    if max_depth == 0:
        return draw(st.sampled_from((A, B, Not(A), Not(B))))
    sub = formulas(max_depth=max_depth - 1)
    return draw(st.one_of(
        st.sampled_from((A, B, Not(A), Not(B))),
        st.builds(G, sub),
        st.builds(F, sub),
        st.builds(Next, sub),
        st.builds(lambda x, y: x & y, sub, sub),
        st.builds(lambda x, y: x | y, sub, sub),
        st.builds(Until, sub, sub),
        st.builds(Release, sub, sub),
    ))


prefixes = st.lists(st.sampled_from(ALPHABET), max_size=12)


class Replay(NamedTuple):
    verdict4: Verdict4
    max_wait: int
    exceeded: bool
    verdict3: Verdict3


def replay(monitor, trace, horizon) -> Replay:
    """The oracle for the streaming pipeline: step ``trace`` one event
    at a time through ``MonitorTable.step`` and
    ``BoundTracker.good_edge``/``step``, stopping where the pipeline
    stops (a definite three-valued verdict truncates the session, the
    tracker still stepping on the event that made it definite; an
    exceeded horizon freezes the tracker), then resolve the verdict."""
    tracker = monitor.tracker
    pstate, tstate = monitor.initial, tracker.initial
    wait = max_wait = 0
    exceeded = False
    for event in trace:
        if monitor.verdicts[pstate] is not Verdict3.UNKNOWN:
            break
        pstate = monitor.step(pstate, event)
        if exceeded:
            continue
        wait = 0 if tracker.good_edge(tstate, event) else wait + 1
        max_wait = max(max_wait, wait)
        tstate = tracker.step(tstate, event)
        if horizon is not None and wait > horizon:
            exceeded = True
    verdict3 = monitor.verdicts[pstate]
    return Replay(resolve(verdict3, exceeded, wait), max_wait, exceeded,
                  verdict3)


def resolve(verdict3, latched, wait) -> Verdict4:
    """The resolution rule, in severity order."""
    if verdict3 is Verdict3.FALSE:
        return Verdict4.FALSIFIED_SAFETY
    if latched:
        return Verdict4.LIVENESS_BOUND_EXCEEDED
    if verdict3 is Verdict3.TRUE or wait == 0:
        return Verdict4.SATISFIED_SO_FAR
    return Verdict4.INCONCLUSIVE


class TestVerdictLattice:
    def test_severity_order(self):
        # higher = worse: falsification outranks a blown bound outranks
        # the two still-open verdicts
        assert (SEVERITY[Verdict4.INCONCLUSIVE]
                < SEVERITY[Verdict4.SATISFIED_SO_FAR]
                < SEVERITY[Verdict4.LIVENESS_BOUND_EXCEEDED]
                < SEVERITY[Verdict4.FALSIFIED_SAFETY])

    def test_most_severe(self):
        assert most_severe(
            Verdict4.INCONCLUSIVE, Verdict4.SATISFIED_SO_FAR
        ) is Verdict4.SATISFIED_SO_FAR
        assert most_severe(
            Verdict4.LIVENESS_BOUND_EXCEEDED, Verdict4.FALSIFIED_SAFETY
        ) is Verdict4.FALSIFIED_SAFETY

    def test_finality(self):
        assert Verdict4.FALSIFIED_SAFETY.is_final
        assert Verdict4.LIVENESS_BOUND_EXCEEDED.is_final
        assert not Verdict4.SATISFIED_SO_FAR.is_final
        assert not Verdict4.INCONCLUSIVE.is_final

    def test_to_verdict3(self):
        assert Verdict4.FALSIFIED_SAFETY.to_verdict3() is Verdict3.FALSE
        assert Verdict4.LIVENESS_BOUND_EXCEEDED.to_verdict3() is Verdict3.UNKNOWN
        assert Verdict4.SATISFIED_SO_FAR.to_verdict3() is Verdict3.UNKNOWN
        assert Verdict4.INCONCLUSIVE.to_verdict3() is Verdict3.UNKNOWN


class TestFalsificationIsBadPrefix:
    @given(formulas(), prefixes)
    @settings(max_examples=120, deadline=None)
    def test_falsified_iff_no_extension_satisfies(self, formula, prefix):
        monitor = compile_formula(formula, ALPHABET)
        outcome = monitor.run_finitary(prefix)
        offline = is_bad_prefix(translate(formula, ALPHABET), prefix)
        assert (outcome.verdict is Verdict4.FALSIFIED_SAFETY) == offline

    @given(formulas(), prefixes)
    @settings(max_examples=60, deadline=None)
    def test_falsification_is_absorbing(self, formula, prefix):
        monitor = compile_formula(formula, ALPHABET)
        if monitor.run_finitary(prefix).verdict is not Verdict4.FALSIFIED_SAFETY:
            return
        for extension in ("a", "b", "ab", "ba"):
            extended = monitor.run_finitary(tuple(prefix) + tuple(extension))
            assert extended.verdict is Verdict4.FALSIFIED_SAFETY


class TestBoundedWaits:
    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=120, deadline=None)
    def test_wait_caps_at_horizon_plus_one(self, formula, prefix, horizon):
        outcome = compile_formula(formula, ALPHABET).run_finitary(
            prefix, horizon=horizon
        )
        assert outcome.max_wait <= horizon + 1
        if outcome.falsified:
            # falsification outranks the latch in the resolution order
            assert not outcome.bound_exceeded
        else:
            assert outcome.bound_exceeded == (outcome.max_wait > horizon)

    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_latch_matches_offline_wait_recomputation(
        self, formula, prefix, horizon
    ):
        monitor = compile_formula(formula, ALPHABET)
        outcome = monitor.run_finitary(prefix, horizon=horizon)
        exceeded = replay(monitor, prefix, horizon).exceeded
        if not outcome.falsified:
            # (falsification outranks the latch in the resolution order,
            # so a falsified outcome says nothing about the replay)
            assert outcome.bound_exceeded == exceeded

    def test_gf_a_latches_exactly_past_the_horizon(self):
        monitor = compile_formula(G(F(A)), ALPHABET)
        at_bound = monitor.run_finitary("bb", horizon=2)
        assert at_bound.verdict is Verdict4.INCONCLUSIVE
        assert at_bound.max_wait == 2
        past_bound = monitor.run_finitary("bbb", horizon=2)
        assert past_bound.verdict is Verdict4.LIVENESS_BOUND_EXCEEDED
        assert past_bound.max_wait == 3

    def test_gf_a_good_edges_validate_with_one_step_lag(self):
        # translations are guess-style: an 'a' validates an accepting
        # visit only when a run through the promise survives the *next*
        # symbol, so the very first 'a' starts a wait rather than
        # resetting one — "abb" genuinely is a bad prefix of the
        # 2-bounded language, while a later 'a' resets the wait to 0
        monitor = compile_formula(G(F(A)), ALPHABET)
        assert monitor.run_finitary("abb", horizon=2).bound_exceeded
        validated = monitor.run_finitary("ba", horizon=2)
        assert validated.verdict is Verdict4.SATISFIED_SO_FAR
        assert validated.max_wait == 1

    def test_unbounded_run_never_latches(self):
        outcome = compile_formula(G(F(A)), ALPHABET).run_finitary("b" * 64)
        assert outcome.verdict is Verdict4.INCONCLUSIVE
        assert outcome.max_wait == 64
        assert not outcome.bound_exceeded


def _compile_direct(formula, alphabet) -> MonitorTable:
    """The oracle: product the subset tables of ``A_φ`` and ``A_¬φ``
    straight from the translation, bypassing the decomposition."""
    alphabet = frozenset(alphabet)
    pos = SubsetTable.from_automaton(translate(formula, alphabet))
    neg = SubsetTable.from_automaton(translate(Not(formula), alphabet))
    return MonitorTable._product(formula, alphabet, pos, neg)


class TestDecomposedEqualsDirect:
    @given(formulas(), prefixes)
    @settings(max_examples=120, deadline=None)
    def test_three_valued_agreement_on_every_prefix(self, formula, prefix):
        decomposed = compile_formula(formula, ALPHABET)
        direct = _compile_direct(formula, ALPHABET)
        for cut in range(len(prefix) + 1):
            assert decomposed.run(prefix[:cut]) is direct.run(prefix[:cut])


class TestStreamingMatchesOneShot:
    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_session_outcome_equals_run_finitary(self, formula, prefix, horizon):
        monitor = compile_formula(formula, ALPHABET)
        oneshot = monitor.run_finitary(prefix, horizon=horizon)
        session = TraceSession("s", monitor, horizon=horizon)
        for event in prefix:
            session.observe(event)
        streamed = session.outcome()
        assert isinstance(streamed, MonitorOutcome)
        assert streamed.verdict is oneshot.verdict
        assert streamed.verdict3 is oneshot.verdict3
        assert streamed.max_wait == oneshot.max_wait

    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_batched_drain_equals_observe(self, formula, prefix, horizon):
        monitor = compile_formula(formula, ALPHABET)
        eager = TraceSession("eager", monitor, horizon=horizon)
        for event in prefix:
            eager.observe(event)
        batched = TraceSession("batched", monitor, horizon=horizon,
                               max_pending=64)
        rng = random.Random(7)
        i = 0
        while i < len(prefix):
            j = min(len(prefix), i + rng.randint(1, 4))
            batched.enqueue_many(prefix[i:j])
            batched.drain()
            i = j
        assert batched.verdict4 is eager.verdict4
        assert batched.max_wait == eager.max_wait


def resolved(session) -> Verdict4:
    """The resolution rule, read off a session's public state."""
    return resolve(session.verdict, session.latched, session.wait)


horizons = st.one_of(st.none(), st.just(0), st.integers(1, 5))
operations = st.lists(
    st.tuples(st.sampled_from(("advance", "observe", "drain", "reset")),
              prefixes),
    max_size=6,
)


class TestStoredSeverity:
    """A session stores its four-valued verdict as a severity, set where
    it is reset or stepped; it must always read as the rule resolved
    from the state it summarizes."""

    @given(formulas(), horizons, operations)
    @settings(max_examples=120, deadline=None)
    def test_verdict4_is_resolved_after_every_operation(
        self, formula, horizon, operations
    ):
        monitor = compile_formula(formula, ALPHABET)
        session = TraceSession("s", monitor, horizon=horizon)
        assert session.verdict4 is resolved(session)
        for operation, events in operations:
            if operation == "advance":
                session.advance(session.encode(events))
            elif operation == "observe":
                for event in events:
                    session.observe(event)
                    assert session.verdict4 is resolved(session)
            elif operation == "drain":
                session.enqueue_many(events)
                session.drain()
            else:
                session.reset()
            assert session.verdict4 is resolved(session)

    @given(formulas(), prefixes, horizons)
    @settings(max_examples=120, deadline=None)
    def test_run_finitary_equals_reference_loop(self, formula, prefix,
                                                horizon):
        monitor = compile_formula(formula, ALPHABET)
        outcome = monitor.run_finitary(prefix, horizon=horizon)
        expected = replay(monitor, prefix, horizon)
        assert outcome.verdict is expected.verdict4
        assert outcome.verdict3 is expected.verdict3
        assert outcome.max_wait == expected.max_wait
        assert outcome.events == len(prefix)
        assert outcome.horizon == horizon
