"""The Alpern–Schneider decomposition ``B = B_S ∩ B_L`` (§2.4).

This is the Büchi-automata instance of the paper's Theorem 2: the lattice
is the Boolean algebra of ω-regular languages (not ⋁-complete — the case
that breaks both the topological and Gumm frameworks), the closure is the
automaton operator of :mod:`repro.buchi.closure`, and the construction is
exactly the proof term:

* ``B_S = cl(B)``                         — the safety part,
* ``B_L = B ∪ ¬cl(B)``                    — the liveness part,

with ``¬cl(B)`` computed by the cheap safety-automaton complement.

All three phases run on the dense kernel (:mod:`repro.automata`): the
closure restricts the input's dense core, the complement takes the
closure's subset DFA as its core, and the union permutes the
disjoint-sum core into its interner order.  Each part is built once,
from its finished dense form, with its transition dict left to be built
on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY
from repro.obs.profile import PhaseTimer, timed
from repro.omega.word import LassoWord

from .automaton import BuchiAutomaton
from .closure import closure, is_liveness, is_safety
from .complement import complement_safety
from .operations import intersection, union

#: Wall time attributed to the three proof-term phases of Theorem 2's
#: Büchi instance (plus verification, which is optional and expensive).
_PHASES = PhaseTimer("repro.buchi.decompose")
_DECOMPOSITIONS = REGISTRY.counter(
    "repro_buchi_decompositions_total", "Alpern–Schneider decompositions built"
)


@dataclass(frozen=True)
class BuchiDecomposition:
    """The result of decomposing ``B`` into safety and liveness automata."""

    original: BuchiAutomaton
    safety: BuchiAutomaton
    liveness: BuchiAutomaton
    #: Optional :class:`repro.certs.Certificate` attached by
    #: ``repro.analysis.decompose(..., certify=True)``; excluded from
    #: equality so certified and plain results compare as the same answer.
    certificate: object = field(default=None, compare=False, repr=False)

    def intersection_automaton(self) -> BuchiAutomaton:
        """``B_S ∩ B_L`` — provably language-equal to ``B``."""
        return intersection(self.safety, self.liveness)

    def verify(self, witness: LassoWord | None = None) -> bool:
        """The shared verifier spelling of the unified decomposition
        protocol (:func:`repro.analysis.decompose`): with a ``witness``
        lasso word, check the identity ``L(B) = L(B_S) ∩ L(B_L)`` on
        that word; with no witness, prove it exactly."""
        if witness is None:
            return self.verify_exact()
        return self.verify_on_word(witness)

    def verify_on_word(self, word: LassoWord) -> bool:
        """Check the identity ``L(B) = L(B_S) ∩ L(B_L)`` on one word.

        Alias kept for existing callers; :meth:`verify` is the unified
        spelling."""
        return self.original.accepts(word) == (
            self.safety.accepts(word) and self.liveness.accepts(word)
        )

    @timed("repro.buchi.decompose_verify")
    def verify_exact(self) -> bool:
        """Prove the identity ``L(B) = L(B_S) ∩ L(B_L)`` exactly.

        Checked as three inclusions chosen so that only *small or safety*
        automata ever get complemented:

        1. ``L(B_S ∩ B_L) ⊆ L(B)`` — needs ``¬B`` (the original input,
           the smallest automaton in play);
        2. ``L(B) ⊆ L(B_S)``       — needs ``¬B_S`` (a safety automaton,
           complemented by cheap subset construction);
        3. ``L(B) ⊆ L(B_L)``       — holds structurally (``B_L`` embeds
           ``B`` as one branch of the union) but is re-checked via the
           inclusion engine for defense in depth, with the cheap side
           complemented: ``B ⊆ B ∪ X`` reduces to emptiness of
           ``B ∩ ¬(B ∪ X)`` only if we complement the union, so instead
           we verify the contrapositive on the union structure itself.
        """
        from .inclusion import is_subset

        if not is_subset(self.intersection_automaton(), self.original):
            return False
        if not is_subset(self.original, self.safety):
            return False
        return self._original_included_in_liveness()

    def _original_included_in_liveness(self) -> bool:
        """``L(B) ⊆ L(B ∪ ¬cl B)`` — true by construction of the union
        automaton; verified structurally: every ``B``-transition appears
        (tagged 'l') in the union, with acceptance preserved."""
        tagged = {("l", q) for q in self.original.states}
        if not tagged <= set(self.liveness.states):
            return False
        for (q, a), targets in self.original.transitions.items():
            image = self.liveness.transitions.get((("l", q), a), frozenset())
            if not {("l", r) for r in targets} <= image:
                return False
        for a in self.original.alphabet:
            first = self.original.successors(self.original.initial, a)
            image = self.liveness.transitions.get(
                (self.liveness.initial, a), frozenset()
            )
            if not {("l", r) for r in first} <= image:
                return False
        return all(
            ("l", q) in self.liveness.accepting for q in self.original.accepting
        )

    def verify_parts(self) -> bool:
        """Prove that the parts really are a safety and a liveness
        property (the other two conclusions of the theorem)."""
        return is_safety(self.safety) and is_liveness(self.liveness)


def _decompose(automaton: BuchiAutomaton) -> BuchiDecomposition:
    """Decompose ``B`` into ``B_S`` (safety) and ``B_L`` (liveness) with
    ``L(B) = L(B_S) ∩ L(B_L)``."""
    with _PHASES.phase("closure"):
        safety = closure(automaton)
    with _PHASES.phase("complement"):
        negated_closure = complement_safety(safety)
    with _PHASES.phase("union"):
        liveness = union(
            automaton, negated_closure, name=f"{automaton.name}_L"
        )
    _DECOMPOSITIONS.add()
    return BuchiDecomposition(
        original=automaton,
        safety=safety._renamed(f"{automaton.name}_S"),
        liveness=liveness,
    )
