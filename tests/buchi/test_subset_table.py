"""The one prefix DFA against the frozenset subset run it lowers.

:class:`~repro.buchi.subset.SubsetTable` is built by the dense kernel on
bitmasks; every finite-prefix consumer (bad-prefix analysis, the
minimizer, truncation monitors, the finitary-liveness tracker) runs it.
This property recomputes the live-restricted subset run
``post(S, a) ∩ live`` on frozensets of the original states and checks
every consumer against it, on random automata and on the closures and
liveness conjuncts of the rv-stream benchmark's eight policies.
"""

import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import decompose
from repro.buchi import (
    closure,
    good_prefix_dfa,
    is_bad_prefix,
    live_states,
    minimize_good_prefix_dfa,
    random_automaton,
)
from repro.enforcement import SecurityMonitor
from repro.ltl import parse, translate
from repro.rv import BoundTracker

ALPHABET = ("a", "b")
#: the rv-stream benchmark's policies
POLICIES = (
    "G a", "F b", "G (a -> X b)", "G F a",
    "a & F !a", "F G b", "a U b", "G (b -> F a)",
)


@functools.cache
def policy_automaton(index: int):
    """Policy ``index // 2``: its closure when even, its liveness
    conjunct (what the bound tracker runs on) when odd."""
    formula = parse(POLICIES[index // 2])
    if index % 2:
        return decompose(formula, alphabet=frozenset(ALPHABET)).liveness
    return closure(translate(formula, ALPHABET))


def seeded_automaton(seed: int):
    rng = random.Random(seed)
    return random_automaton(rng, rng.randint(1, 6))


automata = st.one_of(
    st.integers(0, 10_000).map(seeded_automaton),
    st.integers(0, 2 * len(POLICIES) - 1).map(policy_automaton),
)


def subset_of_states(automaton, initial, next_state, symbols) -> dict:
    """Each reachable table state → its frozenset subset, by walking the
    table and the frozenset run side by side (and checking that the
    table state determines the subset)."""
    live = live_states(automaton)
    subset_of = {initial: frozenset({automaton.initial}) & live}
    queue = [initial]
    for state in queue:
        for i, a in enumerate(symbols):
            target = next_state[state][i]
            subset = automaton.post(subset_of[state], a) & live
            if target in subset_of:
                assert subset_of[target] == subset
            else:
                subset_of[target] = subset
                queue.append(target)
    return subset_of


@given(automata)
@settings(max_examples=80, deadline=None)
def test_tables_follow_the_frozenset_subset_run(automaton):
    live = live_states(automaton)

    # the tracker's bitmask good-edge flags are the frozenset definition
    tracker = BoundTracker.from_automaton(automaton)
    subset_of = subset_of_states(automaton, tracker.initial,
                                 tracker.next_state, tracker.symbols)
    for state, subset in subset_of.items():
        for i, a in enumerate(tracker.symbols):
            expected = bool(
                automaton.post(subset & automaton.accepting, a) & live
            )
            assert tracker.good[state][i] == expected, (state, a)

    # every consumer of the prefix table agrees with the frozenset run
    minimal = minimize_good_prefix_dfa(good_prefix_dfa(automaton))
    monitor = SecurityMonitor.for_property(automaton)
    for length in range(5):
        for word in itertools.product(ALPHABET, repeat=length):
            subset = frozenset({automaton.initial}) & live
            for a in word:
                subset = automaton.post(subset, a) & live
            good = bool(subset)
            assert is_bad_prefix(automaton, word) is not good, word
            assert minimal.accepts_good(word) is good, word
            assert monitor.admits_prefix(word) is good, word
