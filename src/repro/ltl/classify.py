"""Safety/liveness classification of LTL formulas.

Sistla characterized safety and liveness syntactically for temporal
logic; the paper instead routes everything through the lattice framework.
We follow the paper: translate the formula to a Büchi automaton, apply
the closure operator, and test ``L = cl.L`` (safety) / ``cl.L = Σ^ω``
(liveness) with exact automata-theoretic checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.buchi import (
    BuchiAutomaton,
    closure,
    intersection_is_empty,
    safety_is_universal,
)
from repro.buchi.decomposition import _decompose as _buchi_decompose

from .syntax import Formula
from .translate import translate


class PropertyClass(Enum):
    """The paper's trichotomy (plus the degenerate overlap)."""

    SAFETY = "safety"
    LIVENESS = "liveness"
    BOTH = "both"  # only Σ^ω
    NEITHER = "neither"


@dataclass(frozen=True)
class Classification:
    """Everything the classifier learned about one formula."""

    formula: Formula
    automaton: BuchiAutomaton
    closure_automaton: BuchiAutomaton
    kind: PropertyClass

    @property
    def is_safety(self) -> bool:
        return self.kind in (PropertyClass.SAFETY, PropertyClass.BOTH)

    @property
    def is_liveness(self) -> bool:
        return self.kind in (PropertyClass.LIVENESS, PropertyClass.BOTH)


def classify(formula: Formula, alphabet) -> Classification:
    """Classify an LTL formula as safety / liveness / neither over the
    given alphabet.

    Exact, and cheap even for large automata: the complement of the
    formula's language is obtained by translating ``¬formula`` (never by
    automaton complementation), so safety reduces to the emptiness of
    ``cl(A_φ) ∩ A_¬φ`` and liveness to the universality of the safety
    automaton ``cl(A_φ)`` (its subset run never dies).  Both questions
    are decided on dense cores, without building the product or the
    complement as automata.
    """
    from .syntax import Not

    automaton = translate(formula, alphabet)
    closed = closure(automaton)
    negated = translate(Not(formula), alphabet)
    safe = intersection_is_empty(closed, negated)
    live = safety_is_universal(closed)
    if safe and live:
        kind = PropertyClass.BOTH
    elif safe:
        kind = PropertyClass.SAFETY
    elif live:
        kind = PropertyClass.LIVENESS
    else:
        kind = PropertyClass.NEITHER
    return Classification(
        formula=formula,
        automaton=automaton,
        closure_automaton=closed,
        kind=kind,
    )


def _decompose_formula(formula: Formula, alphabet):
    """The Alpern–Schneider decomposition of a formula's language:
    returns the :class:`~repro.buchi.decomposition.BuchiDecomposition`
    of its automaton (safety automaton ∩ liveness automaton = models)."""
    return _buchi_decompose(translate(formula, alphabet))
