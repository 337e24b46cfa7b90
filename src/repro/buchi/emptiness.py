"""Emptiness and witness extraction for Büchi automata.

``L(B) ≠ ∅`` iff some accepting state lies on a cycle reachable from the
initial state — decided via SCC analysis on the dense core
(:mod:`repro.automata`).  Non-emptiness comes with a constructive
witness: a :class:`~repro.omega.word.LassoWord` in the language, which
is how every extensional claim in this reproduction is cross-checked
against the semantic (lasso-membership) layer.
"""

from __future__ import annotations

from repro.automata.dense import DenseBuchi, DenseForm
from repro.omega.word import LassoWord

from .automaton import AutomatonError, BuchiAutomaton, State, _LazyTransitions


def live_states(automaton: BuchiAutomaton) -> frozenset:
    """States ``q`` with ``L(B(q)) ≠ ∅`` — those that can reach a cyclic
    SCC containing an accepting state.

    This is exactly the state set the paper's closure operator keeps
    ("first removes states that cannot reach an accepting state" — more
    precisely, states whose language is empty; see §4.4's
    ``Q' = {q | L(B(q)) ≠ ∅}``).
    """
    form = automaton.to_dense()
    return form.unintern_mask(form.live())


def is_empty(automaton: BuchiAutomaton) -> bool:
    """``L(B) = ∅``?"""
    form = automaton.to_dense()
    return not form.live() & (1 << form.core.initial)


def find_accepted_word(automaton: BuchiAutomaton) -> LassoWord | None:
    """A lasso word in ``L(B)``, or ``None`` when the language is empty.

    The witness is built from a shortest symbol-labeled path to an
    accepting state on a reachable cycle, plus a shortest cycle back.
    """
    form = automaton.to_dense()
    candidates = form.unintern_mask(
        form.reachable() & form.live() & form.core.accepting
    )
    for target in sorted(candidates, key=repr):
        prefix = _shortest_word(automaton, automaton.initial, target, allow_empty=True)
        if prefix is None:
            continue
        cycle = _shortest_word(automaton, target, target, allow_empty=False)
        if cycle is None:
            continue
        return LassoWord(prefix, cycle)
    return None


def trim(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """Restrict to useful states: reachable and with non-empty language.

    When the initial state itself is useless the result is a canonical
    one-state automaton for ``∅`` over the same alphabet; when every
    state is useful (and no transition entry is explicitly empty) it is
    ``automaton`` itself, dense form included.
    """
    form = automaton.to_dense()
    keep = form.reachable() & form.live()
    if not keep & (1 << form.core.initial):
        return empty_automaton(automaton.alphabet, name=automaton.name)
    transitions = automaton.transitions
    if keep == form.core.full_mask() and (
            # a dense-built mapping has no explicit empty entry: its dict
            # need not be built to know
            (isinstance(transitions, _LazyTransitions) and transitions.dense)
            or all(transitions.values())):
        return automaton
    return BuchiAutomaton._from_kernel(
        form.restricted(keep, form.core.accepting),
        automaton.name,
        automaton.alphabet,
    )


def empty_automaton(alphabet, name: str = "∅") -> BuchiAutomaton:
    """A canonical automaton with ``L = ∅``: one non-accepting state
    ``"dead"`` without transitions."""
    return _one_state(alphabet, "dead", False, name)


def universal_automaton(alphabet, name: str = "Σ^ω") -> BuchiAutomaton:
    """A canonical automaton with ``L = Σ^ω``: one accepting state
    ``"⊤"`` looping on every symbol."""
    return _one_state(alphabet, "⊤", True, name)


def _one_state(alphabet, state: str, loop: bool, name: str) -> BuchiAutomaton:
    """The one-state automaton over ``alphabet`` whose state accepts and
    loops on every symbol when ``loop``, and has no transition otherwise.

    Built from its dense core, with nothing validated or interned but
    the alphabet's non-emptiness: the empty-closure path builds one per
    subject.  The result equals, hashes like and pickles byte for byte as
    the ``BuchiAutomaton.build`` spelling, whose transition order is the
    argument's iteration order and whose ``accepting`` is a set of its
    own."""
    order = tuple(alphabet)
    symbols = frozenset(
        alphabet if isinstance(alphabet, (set, frozenset)) else order
    )
    if not symbols:
        raise AutomatonError("alphabet must be non-empty")
    bit = int(loop)
    form = DenseForm(
        DenseBuchi(n_states=1, n_symbols=len(symbols), initial=0,
                   succ=((bit,),) * len(symbols), accepting=bit),
        (state,),
        tuple(sorted(symbols, key=repr)),
    )
    if not loop:
        return BuchiAutomaton._from_kernel(form, name, symbols, dict)
    return BuchiAutomaton._from_kernel(
        form, name, symbols,
        lambda: {(state, a): frozenset((state,)) for a in order},
        accepting=frozenset((state,)),
    )


def _shortest_word(
    automaton: BuchiAutomaton, source: State, target: State, allow_empty: bool
) -> tuple | None:
    """BFS for the shortest symbol sequence driving ``source`` to
    ``target``; with ``allow_empty=False`` the sequence must be non-empty
    (used for cycles)."""
    if allow_empty and source == target:
        return ()
    seen = set()
    queue: list[tuple[State, tuple]] = []
    for a in sorted(automaton.alphabet, key=repr):
        for r in sorted(automaton.successors(source, a), key=repr):
            if r == target:
                return (a,)
            if r not in seen:
                seen.add(r)
                queue.append((r, (a,)))
    while queue:
        q, word = queue.pop(0)
        for a in sorted(automaton.alphabet, key=repr):
            for r in sorted(automaton.successors(q, a), key=repr):
                if r == target:
                    return word + (a,)
                if r not in seen:
                    seen.add(r)
                    queue.append((r, word + (a,)))
    return None
