"""One classification/decomposition API across every framework.

The paper's punchline is uniformity: the same three closure axioms
drive safety/liveness in ``P(Σ^ω)``, ω-regular languages, branching
time, and tree languages.  This module exposes that uniformity as a
single vocabulary:

* :func:`classify_element` — finite lattice + closure (Section 3);
* :func:`classify_automaton` / :func:`classify_formula` — the linear
  time instances (Sections 2.2–2.4);
* :func:`classify_rabin_on_samples` — the tree instance, sampled
  (Section 4.4, per the DESIGN.md substitution);
* the corresponding Theorem 2/3/9 constructions live behind the one
  :func:`repro.analysis.decompose` facade.
"""

from __future__ import annotations

from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.closure import is_liveness as buchi_is_liveness
from repro.buchi.closure import is_safety as buchi_is_safety
from repro.lattice.closure import LatticeClosure
from repro.lattice.lattice import FiniteLattice
from repro.ltl.classify import PropertyClass
from repro.ltl.classify import classify as ltl_classify
from repro.ltl.syntax import Formula


def _combine(safe: bool, live: bool) -> PropertyClass:
    if safe and live:
        return PropertyClass.BOTH
    if safe:
        return PropertyClass.SAFETY
    if live:
        return PropertyClass.LIVENESS
    return PropertyClass.NEITHER


def classify_element(
    lattice: FiniteLattice, cl: LatticeClosure, element
) -> PropertyClass:
    """Safety/liveness of a lattice element under a lattice closure."""
    return _combine(cl.is_safety(element), cl.is_liveness(element))


def classify_automaton(automaton: BuchiAutomaton) -> PropertyClass:
    """Safety/liveness of an ω-regular language (exact)."""
    return _combine(buchi_is_safety(automaton), buchi_is_liveness(automaton))


def classify_formula(formula: Formula, alphabet) -> PropertyClass:
    """Safety/liveness of an LTL property (exact, via its automaton)."""
    return ltl_classify(formula, alphabet).kind


def classify_rabin_on_samples(automaton, sample_trees, depth: int = 3) -> PropertyClass:
    """Sampled classification of a Rabin tree language: safety iff the
    closure adds no sample, liveness iff the closure captures every
    sample (sound on the samples; see DESIGN.md on the substitution)."""
    from repro.rabin.closure import rfcl
    from repro.rabin.games_bridge import accepts_tree

    sample_trees = list(sample_trees)
    cl = rfcl(automaton)
    safe = all(
        accepts_tree(cl, t) == accepts_tree(automaton, t) for t in sample_trees
    )
    live = all(accepts_tree(cl, t) for t in sample_trees)
    return _combine(safe, live)


__all__ = [
    "PropertyClass",
    "classify_element",
    "classify_automaton",
    "classify_formula",
    "classify_rabin_on_samples",
]
