"""LTL → Büchi translation (on-the-fly tableau construction).

Pipeline::

    formula --nnf--> positive formula --index--> closure tables
            --tableau--> generalized Büchi --degeneralize--> Büchi
            --trim + simulation-quotient--> result

The positive formula's subformulas are indexed once per call, in
post-order, each distinct subformula getting one index (its *closure
index*: kind, operand indices, and for an atom the mask of the symbols
it allows).  From there on the translation runs on ints:

* a tableau state is a bitmask over the closure index — a *saturated*
  obligation set, locally consistent and closed under the expansion
  laws (∧ adds both conjuncts, ∨ branches, U/R branch between
  fulfilling now and delaying).  This is the GPVW construction
  (Gerth–Peled–Vardi–Wolper 1995), built on the fly: only states
  reachable from the root formula's saturations are ever constructed,
  so the automaton is exponential only in the worst case, not always;
* obligations are expanded in ascending index order and states are
  numbered as they are discovered;
* acceptance is generalized — one set per Until subformula (visit
  states where the Until is absent or already fulfilled), in the order
  of the Untils' text — then degeneralized with the usual counter into
  int Büchi states (``0`` is the fresh initial state), so trimming, the
  simulation quotient and the final renumbering only ever order ints.

Determinism: the index, the expansion order and every numbering are
functions of the formula's structure and the alphabet's repr order, so
the same formula yields the same automaton — same state numbers, same
transitions — in every process, whatever its hash seed and whatever it
translated before.  The index lives and dies with one call.

Correctness is established in the test suite by exhaustive agreement
with the semantic evaluator on bounded lassos — for the ω-regular
fragment that agreement is equality.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.emptiness import trim
from repro.buchi.simulation import quotient_by_simulation
from repro.obs.metrics import REGISTRY
from repro.obs.profile import PhaseTimer

from .syntax import (
    And,
    FalseFormula,
    Formula,
    Letter,
    Next,
    Or,
    Release,
    TrueFormula,
    Until,
    nnf_over_alphabet,
)


#: Per-phase wall time of the translate pipeline (tableau construction,
#: degeneralization, trimming, simulation quotient).
_PHASES = PhaseTimer("repro.ltl.translate")
_TRANSLATIONS = REGISTRY.counter(
    "repro_ltl_translations_total", "translate() calls"
)
_TABLEAU_STATES = REGISTRY.counter(
    "repro_ltl_tableau_states_total",
    "saturated tableau states constructed (pre-degeneralization)",
)


def translate(formula: Formula, alphabet: Iterable, simplify: bool = True) -> BuchiAutomaton:
    """A Büchi automaton with ``L(A) = models(formula)`` over ``alphabet``."""
    alphabet = frozenset(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    symbols = tuple(sorted(alphabet, key=repr))
    name = str(formula)

    with _PHASES.phase("tableau"):
        closure = _Closure(nnf_over_alphabet(formula, alphabet), symbols)
        tableau = _Tableau(closure)
    with _PHASES.phase("degeneralize"):
        k, acceptance = closure.acceptance(tableau)
        nba = _degeneralize(tableau, k, acceptance, symbols, alphabet, name)
    with _PHASES.phase("trim"):
        result = trim(nba)
    if simplify:
        with _PHASES.phase("quotient"):
            result = quotient_by_simulation(result)
    _TRANSLATIONS.add()
    _TABLEAU_STATES.add(len(tableau.masks))
    return result.renumbered(name=name)


# closure-index node kinds
_TRUE, _FALSE, _LETTER, _NEXT, _AND, _OR, _UNTIL, _RELEASE = range(8)

_KINDS = (
    (TrueFormula, _TRUE),
    (FalseFormula, _FALSE),
    (Letter, _LETTER),
    (Next, _NEXT),
    (And, _AND),
    (Or, _OR),
    (Until, _UNTIL),
    (Release, _RELEASE),
)


class _Closure:
    """The subformulas of one positive formula, indexed in post-order.

    Index ``i`` stands for one distinct subformula; bit ``i`` of a
    tableau state says the state carries it.  Per index the tables hold
    its kind, its operands' indices, and (atoms only) the mask of the
    symbols it allows.  ``branches[i]`` lists, per way of witnessing
    ``i`` now, the mask of obligations that way adds — empty for
    ``false``, one entry for the deterministic laws, two for ∨, U, R.
    """

    __slots__ = (
        "kind", "left", "right", "letters", "branches", "nodes", "root",
        "letter_bits", "step_bits", "until_bits", "full_letters",
    )

    def __init__(self, positive: Formula, symbols: tuple):
        symbol_bit = {a: 1 << i for i, a in enumerate(symbols)}
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.letters: list[int] = []
        self.nodes: list[Formula] = []
        index: dict[tuple, int] = {}

        def visit(f: Formula) -> int:
            for cls, kind in _KINDS:
                if isinstance(f, cls):
                    break
            else:
                raise TypeError(f"unknown formula node {f!r}")
            left = right = letters = -1
            if kind == _LETTER:
                letters = 0
                for a in f.letters:
                    letters |= symbol_bit[a]
            elif kind == _NEXT:
                left = visit(f.operand)
            elif kind > _NEXT:
                left = visit(f.left)
                right = visit(f.right)
            key = (kind, left, right, letters)
            i = index.get(key)
            if i is None:
                i = index[key] = len(self.kind)
                self.kind.append(kind)
                self.left.append(left)
                self.right.append(right)
                self.letters.append(letters)
                self.nodes.append(f)
            return i

        self.root = 1 << visit(positive)
        self.full_letters = (1 << len(symbols)) - 1
        self.letter_bits = self.step_bits = self.until_bits = 0
        self.branches: list[tuple] = []
        for i, kind in enumerate(self.kind):
            bit = 1 << i
            left = 1 << self.left[i] if self.left[i] >= 0 else 0
            right = 1 << self.right[i] if self.right[i] >= 0 else 0
            if kind == _LETTER:
                self.letter_bits |= bit
            elif kind in (_NEXT, _UNTIL, _RELEASE):
                self.step_bits |= bit
                if kind == _UNTIL:
                    self.until_bits |= bit
            self.branches.append({
                _TRUE: (0,),
                _FALSE: (),
                _LETTER: (0,),
                _NEXT: (0,),
                _AND: (left | right,),
                _OR: (left, right),
                _UNTIL: (right, left),  # fulfil now; delay
                # right holds now; left either closes the release out or
                # the release is delayed to the next position
                _RELEASE: (right | left, right),
            }[kind])

    def saturate(self, obligations: int) -> dict[int, int]:
        """All saturated, locally consistent extensions of
        ``obligations``, each mapped to the mask of symbols its atoms
        allow (non-zero: inconsistent branches are pruned as soon as
        their atoms disagree).  Obligations are expanded lowest index
        first; the dict keeps discovery order.

        Saturation: every formula in the set is *witnessed now* —
        conjunctions by both conjuncts, disjunctions by a chosen
        disjunct, Until by its right side or by its left side
        (delaying), Release by its right side plus optionally its left
        (closing it out).  The sets keep the originals, so acceptance
        and next-obligation extraction can inspect them.
        """
        branches = self.branches
        letter_bits = self.letter_bits
        letters = self.letters
        results: dict[int, int] = {}
        stack = [(0, obligations, self.full_letters)]
        while stack:
            done, todo, allowed = stack.pop()
            pending = todo & ~done
            while pending:
                low = pending & -pending
                i = low.bit_length() - 1
                done |= low
                if low & letter_bits:
                    allowed &= letters[i]
                    if not allowed:
                        break
                options = branches[i]
                if not options:
                    break
                for extra in options[:0:-1]:
                    stack.append((done, todo | extra, allowed))
                todo |= options[0]
                pending = todo & ~done
            else:
                results.setdefault(done, allowed)
        return results

    def required_next(self, state: int) -> int:
        """The obligations ``state`` carries to the next position: the
        operand of each X, and each U (R) whose right (left) side does
        not hold now."""
        kind, left, right = self.kind, self.left, self.right
        need = 0
        steps = state & self.step_bits
        while steps:
            low = steps & -steps
            steps ^= low
            i = low.bit_length() - 1
            k = kind[i]
            if k == _NEXT:
                need |= 1 << left[i]
            elif k == _UNTIL:
                if not (state >> right[i]) & 1:
                    need |= low
            elif not (state >> left[i]) & 1:
                need |= low
        return need

    def acceptance(self, tableau: "_Tableau") -> tuple[int, list[int]]:
        """The number of generalized acceptance sets, and per tableau
        state the bitmask of the sets it lies in.  Set ``j`` belongs to
        the ``j``-th Until seen in any state (ordered by its text, taken
        once per Until) and holds the states where that Until is absent
        or already fulfilled.  With no Until there is one set, holding
        every state."""
        seen = 0
        for mask in tableau.masks:
            seen |= mask & self.until_bits
        untils = []
        while seen:
            low = seen & -seen
            seen ^= low
            i = low.bit_length() - 1
            untils.append((str(self.nodes[i]), i))
        untils.sort()
        if not untils:
            return 1, [1] * len(tableau.masks)
        right = self.right
        out = []
        for mask in tableau.masks:
            bits = 0
            for j, (_text, i) in enumerate(untils):
                if not (mask >> i) & 1 or (mask >> right[i]) & 1:
                    bits |= 1 << j
            out.append(bits)
        return len(untils), out


class _Tableau:
    """The reachable tableau states of one closure, numbered as they are
    discovered (breadth first from the root's saturations).

    ``masks[s]`` is state ``s``'s obligation set, ``allowed[s]`` the
    symbols it may read, ``successors[s]`` the states every allowed
    symbol leads to (one saturation per distinct next-obligation set,
    memoized), and ``initial`` the root's saturations.
    """

    __slots__ = ("masks", "allowed", "successors", "initial")

    def __init__(self, closure: _Closure):
        self.masks: list[int] = []
        self.allowed: list[int] = []
        self.successors: list[tuple] = []
        number: dict[int, int] = {}

        def states_of(obligations: int) -> tuple:
            out = []
            for mask, allowed in closure.saturate(obligations).items():
                s = number.get(mask)
                if s is None:
                    s = number[mask] = len(self.masks)
                    self.masks.append(mask)
                    self.allowed.append(allowed)
                out.append(s)
            return tuple(out)

        self.initial = states_of(closure.root)
        by_need: dict[int, tuple] = {}
        s = 0
        while s < len(self.masks):
            need = closure.required_next(self.masks[s])
            succ = by_need.get(need)
            if succ is None:
                succ = by_need[need] = states_of(need)
            self.successors.append(succ)
            s += 1


def _degeneralize(
    tableau: _Tableau,
    k: int,
    acceptance: list[int],
    symbols: tuple,
    alphabet: frozenset,
    name: str,
) -> BuchiAutomaton:
    """Textbook counter construction GNBA → NBA, on int states.

    NBA nodes are ``(tableau state, i)`` with ``i`` the index of the
    acceptance set currently awaited; the counter advances when the
    *source* lies in set ``i``, and the accepting nodes are ``(q, 0)``
    with ``q ∈ F_0`` — visited infinitely often iff every set is.  A
    fresh initial state ``0`` simulates all tableau states asserting
    the root formula; the other nodes are numbered ``1, 2, …`` as they
    are discovered.
    """
    successors = tableau.successors
    allowed = tableau.allowed
    number: dict[tuple, int] = {}
    nodes: list[tuple] = [(-1, 0)]

    def targets_of(s: int, i: int) -> list[int]:
        # the counter step, then the node ids of s's successors
        i_next = (i + 1) % k if (acceptance[s] >> i) & 1 else i
        out = []
        for t in successors[s]:
            node = (t, i_next)
            n = number.get(node)
            if n is None:
                n = number[node] = len(nodes)
                nodes.append(node)
            out.append(n)
        return out

    transitions: dict = {}
    by_symbol: list[list[int]] = [[] for _ in symbols]
    for s0 in tableau.initial:
        if not successors[s0]:
            continue
        targets = targets_of(s0, 0)
        for a in range(len(symbols)):
            if (allowed[s0] >> a) & 1:
                by_symbol[a].extend(targets)
    for a, targets in enumerate(by_symbol):
        if targets:
            transitions[0, symbols[a]] = frozenset(targets)
    n = 1
    while n < len(nodes):
        s, i = nodes[n]
        if successors[s]:
            targets = frozenset(targets_of(s, i))
            for a in range(len(symbols)):
                if (allowed[s] >> a) & 1:
                    transitions[n, symbols[a]] = targets
        n += 1

    accepting = frozenset(
        n for n, (s, i) in enumerate(nodes) if n and i == 0 and acceptance[s] & 1
    )
    return BuchiAutomaton(
        alphabet=alphabet,
        states=frozenset(range(len(nodes))),
        initial=0,
        transitions=transitions,
        accepting=accepting,
        name=name,
    )
