"""Tests for good-prefix DFA minimization (canonical monitors)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import (
    good_prefix_dfa,
    minimize_good_prefix_dfa,
    random_automaton,
)
from repro.ltl import parse, translate


def aut(text, alphabet="ab"):
    return translate(parse(text), alphabet)


def all_words(alphabet, up_to):
    out = [()]
    layer = [()]
    for _ in range(up_to):
        layer = [w + (a,) for w in layer for a in alphabet]
        out.extend(layer)
    return out


class TestMinimization:
    def test_language_preserved_on_fixtures(self):
        for text in ("G a", "G (a -> X b)", "a", "GF a", "false"):
            dfa = good_prefix_dfa(aut(text))
            small = minimize_good_prefix_dfa(dfa)
            for w in all_words("ab", 5):
                assert small.accepts_good(w) == dfa.accepts_good(w), (text, w)

    def test_minimized_is_no_larger(self):
        for text in ("G (a -> X b)", "a & F !a"):
            dfa = good_prefix_dfa(aut(text))
            small = minimize_good_prefix_dfa(dfa)
            reachable = {dfa.initial}
            frontier = [dfa.initial]
            while frontier:
                s = frontier.pop()
                for t in dfa.next_state[s]:
                    if t not in reachable:
                        reachable.add(t)
                        frontier.append(t)
            assert len(small) <= len(reachable)

    def test_live_language_has_no_dead_state(self):
        small = minimize_good_prefix_dfa(good_prefix_dfa(aut("GF a")))
        assert all(small.alive)  # no dead state
        assert len(small) == 1  # all prefixes good and equivalent

    def test_empty_language_is_all_dead(self):
        small = minimize_good_prefix_dfa(good_prefix_dfa(aut("false")))
        assert not all(small.alive)  # a dead state exists
        assert len(small) == 1

    def test_canonicality(self):
        """Two different automata for the same safety language minimize
        to DFAs of the same size (minimal DFA uniqueness)."""
        a1 = aut("G a")
        # a structurally different automaton for the same language
        from repro.buchi import BuchiAutomaton

        a2 = BuchiAutomaton.build(
            "ab",
            [0, 1],
            0,
            {(0, "a"): [0, 1], (1, "a"): [0]},
            [0, 1],
            name="Ga-redundant",
        )
        m1 = minimize_good_prefix_dfa(good_prefix_dfa(a1))
        m2 = minimize_good_prefix_dfa(good_prefix_dfa(a2))
        assert len(m1) == len(m2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_language_preserved_random(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng, rng.randint(1, 6))
        dfa = good_prefix_dfa(automaton)
        small = minimize_good_prefix_dfa(dfa)
        for w in all_words("ab", 4):
            assert small.accepts_good(w) == dfa.accepts_good(w)
