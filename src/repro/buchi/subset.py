"""The live-restricted subset construction as a dense prefix DFA.

:class:`SubsetTable` is the one prefix automaton of the repository: the
subset run ``post(S, a) ∩ live`` of a Büchi automaton, determinized once
by the kernel's :func:`~repro.automata.kernel.subset_dfa` on the
automaton's memoized dense form, so that a single event step is two
tuple indexings.  Its dead state (the empty subset) marks exactly the
bad prefixes — the words that leave ``lcl(L)`` (Alpern–Schneider).

Every finite-prefix consumer runs it: bad-prefix analysis
(:mod:`.safety`), the canonical monitor (:mod:`.minimize`), the
streaming monitors' product falsifier and bound tracker
(:mod:`repro.rv.compile`), truncation monitors
(:mod:`repro.enforcement.monitor`) and safety model checking's
bad-prefix extraction (:mod:`repro.systems.modelcheck`).  It lives here
— not in :mod:`repro.rv` — because only the Büchi facade may import the
dense kernel (checks rule RC007).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.automata.kernel import subset_dfa

from .automaton import BuchiAutomaton


class SubsetTable:
    """A complete DFA over finite words, as dense tables.

    States are small integers; ``next_state[q][i]`` is the successor of
    state ``q`` on the ``i``-th symbol (``symbols`` is the alphabet in
    repr order, ``symbol_index`` inverts it).  ``alive[q]`` is false on
    the dead state, which is absorbing; a table has at most one.
    """

    __slots__ = ("symbols", "symbol_index", "initial", "next_state", "alive")

    def __init__(self, symbols, symbol_index, initial, next_state, alive):
        self.symbols = symbols
        self.symbol_index = symbol_index
        self.initial = initial
        self.next_state = next_state
        self.alive = alive

    @classmethod
    def from_automaton(cls, automaton: BuchiAutomaton) -> "SubsetTable":
        """The live-restricted subset DFA of ``automaton``: a word
        reaches the dead state iff it is a bad prefix of ``L(B)``."""
        form = automaton.to_dense()
        return cls._of_dfa(form, subset_dfa(form.core, restrict=form.live()))

    @classmethod
    def _of_dfa(cls, form, dfa) -> "SubsetTable":
        return cls(form.symbols, form.symbol_index, dfa.initial, dfa.trans,
                   tuple(mask != 0 for mask in dfa.subsets))

    def __len__(self) -> int:
        return len(self.next_state)

    def step(self, state: int, symbol) -> int:
        """One event step (raises ``KeyError`` on foreign symbols)."""
        return self.next_state[state][self.symbol_index[symbol]]

    def run(self, events: Iterable) -> int:
        state = self.initial
        table, index = self.next_state, self.symbol_index
        for e in events:
            state = table[state][index[e]]
        return state

    def accepts_good(self, word: Iterable) -> bool:
        """True when ``word`` is a good (still extendable) prefix."""
        return self.alive[self.run(word)]


def good_edge_table(automaton: BuchiAutomaton) -> tuple[SubsetTable, tuple]:
    """The subset table of ``automaton`` plus, per edge, whether taking
    it validates an accepting visit: ``good[q][i]`` is
    ``post(S_q ∩ F, a_i) ∩ live ≠ ∅`` for the subset ``S_q`` of state
    ``q`` — some live run sits on an accepting state at ``q`` and
    survives the symbol (the edge flags of the finitary-liveness
    tracker, :class:`repro.rv.compile.BoundTracker`)."""
    form = automaton.to_dense()
    core, live = form.core, form.live()
    dfa = subset_dfa(core, restrict=live)
    accepting = core.accepting
    good = tuple(
        tuple(bool(core.post(mask & accepting, a) & live)
              for a in range(core.n_symbols))
        for mask in dfa.subsets
    )
    return SubsetTable._of_dfa(form, dfa), good
