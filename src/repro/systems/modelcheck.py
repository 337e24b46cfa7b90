"""Automata-theoretic LTL model checking, monolithic and *decomposed*.

The paper's Section 1 motivation: *"the proof methods employed to check
safety properties differ from those used to check liveness
properties"*.  This module makes that concrete:

* :func:`check` — the monolithic check: ``K ⊨ φ`` iff
  ``L(paths(K)) ∩ L(¬φ) = ∅``;
* :func:`check_safety_part` — the safety conjunct of φ's decomposition,
  checked by *reachability*: a violation is a finite **bad prefix**
  (the subset run of the closure automaton dies);
* :func:`check_liveness_part` — the liveness conjunct, checked by
  *lasso search*: a violation is an infinite fair cycle that respects
  every safety obligation yet avoids the good event forever.

Completeness of the split (every monolithic counterexample is caught by
exactly one of the two part-checks) is the Theorem 2 identity
``L(φ) = L(φ_S) ∩ L(φ_L)`` in action, and is asserted by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.closure import closure
from repro.buchi.complement import complement_safety
from repro.buchi.emptiness import find_accepted_word
from repro.buchi.operations import intersection
from repro.buchi.subset import SubsetTable
from repro.ctl.kripke import KripkeStructure
from repro.ltl.syntax import Formula, Not
from repro.ltl.translate import translate
from repro.omega.word import LassoWord


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a model-checking run."""

    holds: bool
    counterexample: LassoWord | None = None
    bad_prefix: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def check(kripke: KripkeStructure, formula: Formula) -> VerificationResult:
    """``K ⊨ φ`` with a lasso counterexample on failure."""
    alphabet = kripke.alphabet()
    negated = translate(Not(formula), alphabet)
    product = intersection(kripke.paths_automaton(), negated)
    witness = find_accepted_word(product)
    if witness is None:
        return VerificationResult(holds=True)
    return VerificationResult(holds=False, counterexample=witness)


def safety_automaton_of(formula: Formula, alphabet) -> BuchiAutomaton:
    """``φ_S`` — the closure automaton of φ (its strongest safety
    consequence, per Theorem 6)."""
    return closure(translate(formula, alphabet))


def check_safety_part(kripke: KripkeStructure, formula: Formula) -> VerificationResult:
    """Check only the safety conjunct ``φ_S``; a violation comes with a
    finite bad prefix (no liveness reasoning involved)."""
    alphabet = kripke.alphabet()
    safety = safety_automaton_of(formula, alphabet)
    bad = complement_safety(safety)
    product = intersection(kripke.paths_automaton(), bad)
    witness = find_accepted_word(product)
    if witness is None:
        return VerificationResult(holds=True)
    prefix = _minimal_bad_prefix(safety, witness)
    return VerificationResult(
        holds=False, counterexample=witness, bad_prefix=prefix
    )


def check_liveness_part(kripke: KripkeStructure, formula: Formula) -> VerificationResult:
    """Check only the liveness conjunct ``φ_L = φ ∪ ¬φ_S``; a violation
    is a lasso that satisfies every safety obligation of φ yet violates
    φ itself — the genuinely "liveness" counterexamples."""
    alphabet = kripke.alphabet()
    negated = translate(Not(formula), alphabet)
    safety = safety_automaton_of(formula, alphabet)
    # ¬φ_L = ¬φ ∩ φ_S — both factors cheap (no general complementation)
    product = intersection(
        kripke.paths_automaton(), intersection(negated, safety)
    )
    witness = find_accepted_word(product)
    if witness is None:
        return VerificationResult(holds=True)
    return VerificationResult(holds=False, counterexample=witness)


@dataclass(frozen=True)
class DecomposedResult:
    """Both part-checks, plus the monolithic verdict they must imply."""

    safety: VerificationResult
    liveness: VerificationResult

    @property
    def holds(self) -> bool:
        return self.safety.holds and self.liveness.holds

    def __bool__(self) -> bool:
        return self.holds


def check_decomposed(kripke: KripkeStructure, formula: Formula) -> DecomposedResult:
    """Run the safety part by reachability and the liveness part by
    lasso search; ``holds`` iff both pass — equivalent to :func:`check`
    by Theorem 2's identity."""
    return DecomposedResult(
        safety=check_safety_part(kripke, formula),
        liveness=check_liveness_part(kripke, formula),
    )


def replay(kripke: KripkeStructure, word: LassoWord) -> tuple[list, list]:
    """A concrete state path of ``kripke`` whose labels spell ``word``.

    Counterexamples come back from the automata layer as label words;
    this maps one back onto model states: returns ``(stem, loop)`` so
    that the infinite path ``stem · loop^ω`` has label word ``word``.
    Raises ``ValueError`` when the word is not a path of the model
    (never the case for checker output).
    """
    from repro.buchi.automaton import _is_cyclic_component, _tarjan

    spine = word.spine_length
    loop_back = len(word.prefix)

    def advance(i: int) -> int:
        return i + 1 if i + 1 < spine else loop_back

    if kripke.label(kripke.initial) != word[0]:
        raise ValueError("word does not start at the initial label")
    start = (kripke.initial, 0)

    # reachable product nodes and their edges
    adjacency: dict = {}
    frontier = [start]
    seen = {start}
    while frontier:
        node = frontier.pop()
        state, position = node
        nxt = advance(position)
        targets = [
            (succ, nxt)
            for succ in kripke.successors(state)
            if kripke.label(succ) == word[nxt]
        ]
        adjacency[node] = targets
        for child in targets:
            if child not in seen:
                seen.add(child)
                frontier.append(child)

    cyclic_nodes: set = set()
    for component in _tarjan(seen, adjacency):
        if _is_cyclic_component(component, adjacency):
            cyclic_nodes |= component
    if not cyclic_nodes:
        raise ValueError("word is not a path of the model")

    anchor = _bfs_path(start, lambda n: n in cyclic_nodes, adjacency)
    loop_nodes = _bfs_cycle(anchor[-1], adjacency)
    stem = [s for s, _i in anchor[:-1]]
    loop = [s for s, _i in loop_nodes]
    return stem, loop


def _bfs_path(start, goal_test, adjacency) -> list:
    if goal_test(start):
        return [start]
    parent = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        for child in adjacency.get(node, ()):
            if child in parent:
                continue
            parent[child] = node
            if goal_test(child):
                path = [child]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(child)
    raise ValueError("goal unreachable")


def _bfs_cycle(node, adjacency) -> list:
    """A shortest non-empty cycle through ``node`` (which lies on one)."""
    parent: dict = {}
    queue = []
    for child in adjacency.get(node, ()):
        if child == node:
            return [node]
        if child not in parent:
            parent[child] = None
            queue.append(child)
    while queue:
        current = queue.pop(0)
        for child in adjacency.get(current, ()):
            if child == node:
                path = [current]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return [node] + path
            if child not in parent:
                parent[child] = current
                queue.append(child)
    raise ValueError("no cycle through node")


def _minimal_bad_prefix(safety: BuchiAutomaton, word: LassoWord) -> tuple:
    """The shortest prefix of ``word`` that kills every run of the
    safety automaton — the finite refutation safety checking is about."""
    table = SubsetTable.from_automaton(safety)
    prefix: list = []
    state = table.initial
    while table.alive[state]:
        symbol = word[len(prefix)]
        prefix.append(symbol)
        state = table.step(state, symbol)
        # the run over a lasso is periodic within spine · |table| steps
        if len(prefix) > word.spine_length * len(table):
            raise AssertionError(
                "word claimed bad for the safety automaton never dies"
            )
    return tuple(prefix)
