"""Theorem 9: decomposition of Rabin tree automata.

*For any Rabin tree automaton B there exist effectively derivable Rabin
automata B_safe and B_live such that L(B) = L(B_safe) ∩ L(B_live).*

The construction mirrors §2.4: ``B_safe = rfcl(B)`` (a genuine Rabin
automaton with trivialized acceptance — universally safe), and the
liveness component is ``L(B) ∪ ¬L(rfcl B)``.  The complement is
represented semantically as a :class:`~repro.rabin.language.TreeLanguage`
(full Rabin complementation is non-elementary; see DESIGN.md —
membership stays decidable for every regular tree, so the decomposition
identity is machine-checked extensionally on tree samples).

Every membership/emptiness query here runs through the game bridge,
whose arenas are int-interned (:mod:`repro.rabin.games_bridge`), so the
sampled verification loops inherit the dense LAR numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trees.regular import RegularTree

from .automaton import RabinTreeAutomaton
from .closure import rfcl
from .games_bridge import accepts_tree
from .language import TreeLanguage


@dataclass(frozen=True)
class RabinDecomposition:
    """``L(B) = L(B_safe) ∩ live`` with ``B_safe`` a Rabin automaton and
    ``live`` a semantically represented tree language."""

    original: RabinTreeAutomaton
    safety: RabinTreeAutomaton
    liveness: TreeLanguage
    #: Optional :class:`repro.certs.Certificate` attached by
    #: ``repro.analysis.decompose(..., certify=True)``; excluded from
    #: equality so certified and plain results compare as the same answer.
    certificate: object = field(default=None, compare=False, repr=False)

    def verify(self, witness) -> bool:
        """The shared verifier spelling of the unified decomposition
        protocol (:func:`repro.analysis.decompose`): ``witness`` is one
        :class:`~repro.trees.regular.RegularTree` or an iterable of
        them.  Rabin complementation is non-elementary, so — unlike the
        Büchi instance — there is no witness-free exact mode; passing
        ``None`` raises ``TypeError``."""
        if witness is None:
            raise TypeError(
                "RabinDecomposition.verify needs a RegularTree witness "
                "(or an iterable of them); exact verification is not "
                "available for Rabin tree automata"
            )
        if isinstance(witness, RegularTree):
            return self.verify_on_tree(witness)
        return self.verify_on_samples(witness)

    def verify_on_tree(self, tree: RegularTree) -> bool:
        """The identity, on one regular tree."""
        return accepts_tree(self.original, tree) == (
            accepts_tree(self.safety, tree) and tree in self.liveness
        )

    def verify_on_samples(self, trees) -> bool:
        return all(self.verify_on_tree(t) for t in trees)

    def safety_part_is_closed_on(self, trees, depth: int = 3) -> bool:
        """Sampled check that the safety part is fcl-closed: membership
        of each sample in ``L(B_safe)`` coincides with bounded
        fcl-membership (prefix-extendability into the same language)."""
        from repro.trees.closures import fcl_member_bounded, finite_prefix_of_regular

        members = [t for t in trees if accepts_tree(self.safety, t)]

        def extends(x):
            return any(finite_prefix_of_regular(x, z) for z in members)

        for t in trees:
            in_language = accepts_tree(self.safety, t)
            if in_language and not fcl_member_bounded(t, extends, depth):
                return False
        return True


def _decompose(automaton: RabinTreeAutomaton) -> RabinDecomposition:
    """Theorem 9's decomposition."""
    safety = rfcl(automaton)
    live = TreeLanguage.of_automaton(automaton) | ~TreeLanguage.of_automaton(
        safety
    )
    live.name = f"L({automaton.name}) ∪ ¬L({safety.name})"
    return RabinDecomposition(original=automaton, safety=safety, liveness=live)
