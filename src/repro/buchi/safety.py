"""Bad-prefix analysis for safety languages.

Alpern–Schneider's safety = "every violation has a finite witness": a
*bad prefix* is a finite word none of whose extensions lie in the
language.  This module makes bad prefixes first-class, all on the one
prefix DFA :class:`~repro.buchi.subset.SubsetTable`:

* :func:`good_prefix_dfa` — the deterministic finite-word automaton of
  *good* (extendable) prefixes, i.e. the subset construction over the
  live states; its dead state marks exactly the bad prefixes;
* :func:`is_bad_prefix` / :func:`shortest_bad_prefix`;
* :func:`minimal_bad_prefixes` — enumerate the minimal violation
  witnesses up to a length bound (every bad prefix extends a minimal
  one), the artifacts safety model checking and enforcement both
  report.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .automaton import BuchiAutomaton
from .subset import SubsetTable


def good_prefix_dfa(automaton: BuchiAutomaton) -> SubsetTable:
    """The prefix DFA of ``lcl(L(B))`` — good prefixes of ``L(B)``."""
    return SubsetTable.from_automaton(automaton)


def is_bad_prefix(automaton: BuchiAutomaton, word: Sequence) -> bool:
    """No extension of ``word`` lies in ``L(B)``."""
    return not good_prefix_dfa(automaton).accepts_good(word)


def shortest_bad_prefix(automaton: BuchiAutomaton) -> tuple | None:
    """A shortest bad prefix, or ``None`` when the language is live
    (liveness = no bad prefixes at all — the RV-side characterization)."""
    dfa = good_prefix_dfa(automaton)
    alive, rows, symbols = dfa.alive, dfa.next_state, dfa.symbols
    if not alive[dfa.initial]:
        return ()
    parent: dict = {dfa.initial: None}
    queue = [dfa.initial]
    for state in queue:
        for a, target in enumerate(rows[state]):
            if not alive[target]:
                word = [symbols[a]]
                node = state
                while parent[node] is not None:
                    node, symbol = parent[node]
                    word.append(symbol)
                word.reverse()
                return tuple(word)
            if target not in parent:
                parent[target] = (state, symbols[a])
                queue.append(target)
    return None


def minimal_bad_prefixes(
    automaton: BuchiAutomaton, max_length: int
) -> Iterator[tuple]:
    """All minimal bad prefixes up to ``max_length``: bad words whose
    every proper prefix is good.  In the DFA these are exactly the words
    whose run dies on the last symbol."""
    dfa = good_prefix_dfa(automaton)
    alive, rows, symbols = dfa.alive, dfa.next_state, dfa.symbols
    if not alive[dfa.initial]:
        yield ()
        return

    def explore(state: int, word: tuple):
        if len(word) >= max_length:
            return
        for a, target in enumerate(rows[state]):
            extended = word + (symbols[a],)
            if not alive[target]:
                yield extended
            else:
                yield from explore(target, extended)

    yield from explore(dfa.initial, ())
