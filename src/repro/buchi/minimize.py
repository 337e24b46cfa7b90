"""Minimization of good-prefix DFAs (Moore partition refinement).

The enforcement monitors and bad-prefix analyses run the subset
automaton :class:`~repro.buchi.subset.SubsetTable`; minimizing it gives
the canonical (smallest) monitor for the safety property — and, because
minimal DFAs are unique up to isomorphism, a *canonical form* for
safety languages that the tests use to compare closures structurally
rather than just extensionally.  The result is again a
:class:`SubsetTable`, so every consumer of the table runs the minimized
monitor unchanged.
"""

from __future__ import annotations

from .subset import SubsetTable


def minimize_good_prefix_dfa(dfa: SubsetTable) -> SubsetTable:
    """Partition-refinement (Moore) minimization of the reachable part.

    Reachable states are numbered in breadth-first order from the
    initial state; the initial partition is alive vs dead; each round
    re-labels states by (block, successor-block signature) with block
    ids assigned in state order, so the result — and its numbering,
    initial block 0 first — is fully deterministic.  A live language
    minimizes to a table with no dead state at all.
    """
    order = [dfa.initial]
    number = {dfa.initial: 0}
    for state in order:
        for target in dfa.next_state[state]:
            if target not in number:
                number[target] = len(order)
                order.append(target)
    trans = [tuple(number[t] for t in dfa.next_state[s]) for s in order]
    alive = [dfa.alive[s] for s in order]
    n = len(order)

    block_of = [0 if alive[s] else 1 for s in range(n)]
    n_blocks = len(set(block_of))
    while True:
        remap: dict = {}
        new = []
        for s in range(n):
            signature = (block_of[s], tuple(block_of[t] for t in trans[s]))
            if signature not in remap:
                remap[signature] = len(remap)
            new.append(remap[signature])
        block_of = new
        if len(remap) == n_blocks:
            break
        n_blocks = len(remap)

    # state 0 is the initial state and block ids are first-occurrence in
    # state order, so the initial block is 0 already
    representative: list = [-1] * n_blocks
    for s in range(n - 1, -1, -1):
        representative[block_of[s]] = s
    return SubsetTable(
        dfa.symbols, dfa.symbol_index, 0,
        tuple(tuple(block_of[t] for t in trans[r]) for r in representative),
        tuple(alive[r] for r in representative),
    )
