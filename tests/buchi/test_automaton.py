"""Tests for :mod:`repro.buchi.automaton`."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import AutomatonError, BuchiAutomaton
from repro.buchi.random_automata import random_automaton
from repro.omega import LassoWord, all_lassos


class TestValidation:
    def test_initial_must_be_a_state(self):
        with pytest.raises(AutomatonError, match="initial"):
            BuchiAutomaton.build("ab", [0], 1, {}, [])

    def test_accepting_must_be_states(self):
        with pytest.raises(AutomatonError, match="accepting"):
            BuchiAutomaton.build("ab", [0], 0, {}, [1])

    def test_transition_from_unknown_state(self):
        with pytest.raises(AutomatonError, match="unknown state"):
            BuchiAutomaton.build("ab", [0], 0, {(1, "a"): [0]}, [0])

    def test_transition_on_unknown_symbol(self):
        with pytest.raises(AutomatonError, match="unknown symbol"):
            BuchiAutomaton.build("ab", [0], 0, {(0, "c"): [0]}, [0])

    def test_transition_to_unknown_state(self):
        with pytest.raises(AutomatonError, match="targets unknown"):
            BuchiAutomaton.build("ab", [0], 0, {(0, "a"): [7]}, [0])

    def test_empty_alphabet_rejected(self):
        with pytest.raises(AutomatonError, match="alphabet"):
            BuchiAutomaton.build([], [0], 0, {}, [0])


class TestStructure:
    def test_successors_default_empty(self, aut_p5):
        assert aut_p5.successors(1, "c" if False else "a") == frozenset({1})
        assert aut_p5.successors(0, "a") == frozenset({1})

    def test_post(self, aut_p5):
        assert aut_p5.post(frozenset({0, 1}), "b") == frozenset({0})

    def test_determinism(self, aut_p5, aut_p4):
        assert aut_p5.is_deterministic()
        assert not aut_p4.is_deterministic()

    def test_completeness(self, aut_p5, aut_p1):
        assert aut_p5.is_complete()
        assert not aut_p1.is_complete()  # no transition from init on b

    def test_completed(self, aut_p1):
        c = aut_p1.completed()
        assert c.is_complete()
        # language preserved: the sink is rejecting
        assert c.accepts(LassoWord((), "a"))
        assert not c.accepts(LassoWord((), "b"))

    def test_completed_idempotent(self, aut_p5):
        assert aut_p5.completed() is aut_p5

    def test_transition_count(self, aut_p5):
        assert aut_p5.transition_count() == 4

    def test_reachable_states(self, aut_p3):
        assert aut_p3.reachable_states() == frozenset({"init", "wait", "done"})
        assert aut_p3.reachable_states("done") == frozenset({"done"})

    def test_sccs(self, aut_p3):
        comps = {frozenset(c) for c in aut_p3.strongly_connected_components()}
        assert frozenset({"done"}) in comps
        assert frozenset({"wait"}) in comps
        assert frozenset({"init"}) in comps


class TestAcceptance:
    def test_p5_accepts_infinitely_many_a(self, aut_p5):
        assert aut_p5.accepts(LassoWord((), "a"))
        assert aut_p5.accepts(LassoWord((), "ab"))
        assert aut_p5.accepts(LassoWord("bbb", "ba"))
        assert not aut_p5.accepts(LassoWord("aaa", "b"))

    def test_p4_accepts_finitely_many_a(self, aut_p4):
        assert aut_p4.accepts(LassoWord("aaa", "b"))
        assert aut_p4.accepts(LassoWord((), "b"))
        assert not aut_p4.accepts(LassoWord((), "ab"))
        assert not aut_p4.accepts(LassoWord((), "a"))

    def test_p4_p5_are_complementary(self, aut_p4, aut_p5):
        for w in all_lassos("ab", 2, 3):
            assert aut_p4.accepts(w) != aut_p5.accepts(w)

    def test_p1_checks_first_symbol(self, aut_p1):
        assert aut_p1.accepts(LassoWord((), "ab"))
        assert not aut_p1.accepts(LassoWord((), "ba"))

    def test_p3(self, aut_p3):
        assert aut_p3.accepts(LassoWord("a", "b"))
        assert aut_p3.accepts(LassoWord((), "ab"))
        assert not aut_p3.accepts(LassoWord((), "a"))
        assert not aut_p3.accepts(LassoWord((), "b"))

    def test_foreign_word_rejected(self, aut_p5):
        with pytest.raises(AutomatonError, match="outside the alphabet"):
            aut_p5.accepts(LassoWord((), "c"))

    def test_language_object(self, aut_p5):
        lang = aut_p5.language()
        assert LassoWord((), "a") in lang
        assert LassoWord((), "b") not in lang


class TestTransformations:
    def test_with_accepting(self, aut_p5):
        m = aut_p5.with_accepting([0, 1])
        assert m.accepts(LassoWord((), "b"))

    def test_restricted_to(self, aut_p3):
        m = aut_p3.restricted_to(["init", "wait"])
        assert "done" not in m.states
        assert not m.accepts(LassoWord("a", "b"))

    def test_restricting_away_initial_rejected(self, aut_p3):
        with pytest.raises(AutomatonError, match="initial"):
            aut_p3.restricted_to(["wait"])

    def test_renumbered_preserves_language(self, aut_p3):
        m = aut_p3.renumbered()
        assert m.states == frozenset(range(3))
        assert m.initial == 0
        for w in all_lassos("ab", 2, 2):
            assert m.accepts(w) == aut_p3.accepts(w)

    def test_repr(self, aut_p5):
        assert "p5" in repr(aut_p5)


class TestHash:
    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_hash_is_consistent_with_equality(self, seed, n):
        """Equal automata hash equal — whatever their name, transition
        insertion order or pickle round trip — and serve as set members
        and dict keys; the memoized hash never rides in a pickle."""
        a = random_automaton(seed, n)
        before = pickle.dumps(a)
        reordered = BuchiAutomaton(
            alphabet=a.alphabet,
            states=a.states,
            initial=a.initial,
            transitions=dict(reversed(list(a.transitions.items()))),
            accepting=a.accepting,
            name="other",
        )
        hash(a)
        copy = pickle.loads(pickle.dumps(a))
        assert "_hash" not in vars(copy)
        for twin in (reordered, copy, random_automaton(seed, n)):
            assert twin == a
            assert hash(twin) == hash(a)
        assert pickle.dumps(a) == before
        assert len({a, reordered, copy}) == 1
        assert {a: seed}[copy] == seed
        other = random_automaton(seed + 1, n)
        assert (other in {a}) == (other == a)
        changed = a.with_accepting(a.states - a.accepting)
        assert changed != a and changed not in {a}
