"""Direct (strong) simulation on Büchi automata, and quotienting.

Direct simulation ``p ⊑ q`` requires: if ``p`` is accepting then so is
``q``, and every move of ``p`` can be matched by ``q`` into the
relation.  Quotienting by mutual direct simulation preserves the language
and shrinks automata before the exponential complementation step —
the standard engineering move that keeps exact inclusion checks feasible.
"""

from __future__ import annotations

from repro.automata.kernel import iter_bits, simulation_masks

from .automaton import BuchiAutomaton, State


def direct_simulation(automaton: BuchiAutomaton) -> set[tuple[State, State]]:
    """The largest direct-simulation relation, as a set of pairs
    ``(p, q)`` meaning ``q`` simulates ``p``.

    Computed as a greatest fixpoint on bitmask rows (one mask of
    simulators per state) — the relation is unique, so this agrees with
    pairwise refinement.
    """
    form = automaton.to_dense()
    sim = simulation_masks(form.core)
    states = form.states
    return {
        (states[p], states[q]) for p in range(len(states)) for q in iter_bits(sim[p])
    }


def quotient_by_simulation(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """Merge states that mutually direct-simulate each other.

    Mutual direct simulation is a congruence for the Büchi language, so
    the quotient recognizes exactly ``L(B)``.  An automaton without two
    mutually similar states is its own quotient and is returned as is.
    """
    form = automaton.to_dense()
    sim = simulation_masks(form.core)
    simulated = [0] * len(sim)  # simulated[q]: the states q simulates
    for p, simulators in enumerate(sim):
        for q in iter_bits(simulators):
            simulated[q] |= 1 << p
    if all(sim[p] & simulated[p] == 1 << p for p in range(len(sim))):
        return automaton  # no two states are mutually similar
    # each class's representative is its first member in repr order
    names = form.states
    rep: dict[State, State] = {}
    for p in sorted(range(len(names)), key=lambda i: repr(names[i])):
        if names[p] not in rep:
            for q in iter_bits(sim[p] & simulated[p]):
                rep[names[q]] = names[p]

    transitions: dict = {}
    for (q, a), targets in automaton.transitions.items():
        key = (rep[q], a)
        merged = transitions.get(key, frozenset()) | frozenset(
            rep[r] for r in targets
        )
        transitions[key] = merged
    return BuchiAutomaton(
        alphabet=automaton.alphabet,
        states=frozenset(rep.values()),
        initial=rep[automaton.initial],
        transitions=transitions,
        accepting=frozenset(rep[q] for q in automaton.accepting),
        name=automaton.name,
    )
