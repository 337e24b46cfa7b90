"""The Alpern–Schneider closure operator on Büchi automata (§2.4).

The paper: *"The operator first removes states that cannot reach an
accepting state and then makes every remaining state an accepting state.
In this way, the fairness condition is made trivial.  It can then be
shown that applying this operator to B results in an automaton whose
language is the lcl of the language of B."*

This module implements that operator, the exact semantic ``lcl``
membership test it is validated against, and the derived safety/liveness
tests on automata.  All of it runs on the dense kernel
(:mod:`repro.automata`): the closure is the input's dense core
restricted to its reachable, live states, with every state accepting.
"""

from __future__ import annotations

from repro.automata.kernel import lcl_member
from repro.omega.word import LassoWord

from .automaton import BuchiAutomaton
from .emptiness import empty_automaton


def closure(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """``cl(B)``: trim states with empty language, make all states
    accepting.  ``L(cl B) = lcl(L(B))``.

    An automaton for ``∅`` is its own closure (``lcl.∅ = ∅`` — note this
    means ``lcl`` happens to fix 0 here, though the lattice framework
    never requires it).
    """
    form = automaton.to_dense()
    keep = form.reachable() & form.live()
    if not keep & (1 << form.core.initial):
        return empty_automaton(automaton.alphabet, name=f"cl({automaton.name})")
    return BuchiAutomaton._from_kernel(
        form.restricted(keep, keep), automaton.name, automaton.alphabet
    )


def is_closure_automaton(automaton: BuchiAutomaton) -> bool:
    """Structurally in the image of :func:`closure`: every state useful and
    accepting.  Such automata are called *safety automata* — Schneider's
    security automata are exactly these."""
    form = automaton.to_dense()
    full = form.core.full_mask()
    return (
        form.core.accepting == full
        and form.reachable() == full
        and form.live() == full
    )


def semantic_lcl_member(automaton: BuchiAutomaton, word: LassoWord) -> bool:
    """Exact membership of ``word`` in ``lcl(L(B))`` straight from the
    paper's definition: every finite prefix of ``word`` must extend to a
    member of ``L(B)``.

    A prefix ``x`` extends iff some state in ``δ̂(q0, x)`` has non-empty
    language.  Along a lasso the subset sequence is eventually periodic,
    so only finitely many prefixes need checking — we run the subset
    construction until the (cycle-position, state-set) pair repeats.

    This is the ground truth that :func:`closure` is tested against
    (they must agree on every lasso).
    """
    form = automaton.to_dense()
    symbol = form.symbol_index
    try:
        prefix = [symbol[a] for a in word.prefix]
        cycle = [symbol[a] for a in word.cycle]
    except KeyError:
        # a symbol outside the alphabet kills every run at that prefix
        return False
    return lcl_member(form.core, form.live(), prefix, cycle)


def is_safety(automaton: BuchiAutomaton) -> bool:
    """``L(B)`` is a safety property: ``L(B) = lcl(L(B))``.

    ``L ⊆ lcl.L`` always holds, so this reduces to
    ``L(cl B) ⊆ L(B)`` — an ordinary inclusion check.
    """
    from .inclusion import is_subset

    return is_subset(closure(automaton), automaton)


def is_liveness(automaton: BuchiAutomaton) -> bool:
    """``L(B)`` is a liveness property: ``lcl(L(B)) = Σ^ω``.

    Equivalently the complement of the (safety) closure automaton is
    empty — cheap, because a safety automaton is universal iff its
    subset run never dies."""
    from .complement import safety_is_universal

    return safety_is_universal(closure(automaton))
