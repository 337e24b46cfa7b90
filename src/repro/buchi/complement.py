"""Büchi complementation.

Three constructions, from cheap to general:

* :func:`complement_safety` — for safety automata (all states accepting):
  determinize by subset construction; the complement accepts exactly the
  words that eventually kill every run (reach the empty subset).  This is
  the only complement the Theorem 2 decomposition itself needs (the
  liveness automaton is ``B ∪ ¬cl(B)`` and ``cl(B)`` is always a safety
  automaton).
* :func:`complement_deterministic` — for deterministic (completed)
  automata: the classical two-copy construction guessing the point after
  which no accepting state occurs (the complement of a deterministic
  Büchi language is Büchi-recognizable with 2n states).
* :func:`complement` — general nondeterministic automata via Kupferman–
  Vardi rank-based complementation (ranks bounded by ``2(n - |F|)``),
  used by the exact language-inclusion checker on small automata.
"""

from __future__ import annotations

from itertools import product

from repro.automata.dense import DenseBuchi, DenseForm
from repro.automata.kernel import iter_bits, subset_dfa
from repro.obs.metrics import REGISTRY
from repro.obs.profile import PhaseTimer

from .automaton import BuchiAutomaton, _dense_transitions
from .emptiness import trim, universal_automaton

#: Wall time per complementation phase — the dispatcher's trim/emptiness/
#: quotient preprocessing plus one phase per construction actually run
#: (``subset`` for safety, ``two_copy`` for deterministic, ``rank`` for
#: the Kupferman–Vardi fallback).
_PHASES = PhaseTimer("repro.buchi.complement")
_CONSTRUCTIONS = REGISTRY.counter(
    "repro_buchi_complements_total",
    "complement constructions run, by kind",
    ("kind",),
)


def complement_safety(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """Complement of a *safety* automaton (every state accepting and
    useful, e.g. anything produced by :func:`repro.buchi.closure.closure`).

    For such automata, König's lemma gives ``w ∈ L`` iff every prefix of
    ``w`` keeps the subset construction non-empty; so ``¬L`` = "the subset
    run eventually dies", recognized by the subset automaton with an
    accepting sink for the empty set.
    """
    form = automaton.to_dense()
    if form.core.accepting != form.core.full_mask():
        if not form.live() & (1 << form.core.initial):
            # e.g. the canonical ∅ automaton produced by closure/trim
            return universal_automaton(automaton.alphabet, name=f"¬{automaton.name}")
        raise ValueError(
            "complement_safety requires a safety automaton "
            "(all states accepting); use complement() instead"
        )
    _CONSTRUCTIONS.labels(kind="subset").add()
    with _PHASES.phase("subset"):
        # The DFA's breadth-first numbering is the result's state-interner
        # order, so its transition table is the result's core as it is.
        dfa = subset_dfa(form.core)
        decoded = tuple([form.unintern_mask(mask) for mask in dfa.subsets])
        symbols = form.symbols
        core = DenseBuchi(
            n_states=len(decoded),
            n_symbols=len(symbols),
            initial=0,
            succ=tuple(
                tuple([1 << row[a] for row in dfa.trans])
                for a in range(len(symbols))
            ),
            accepting=1 << dfa.dead,
        )
        result_form = DenseForm(core, decoded, symbols)
        return BuchiAutomaton._from_kernel(
            result_form,
            f"¬{automaton.name}",
            automaton.alphabet,
            lambda: _dense_transitions(result_form, by_state=True),
        )


def safety_is_universal(automaton: BuchiAutomaton) -> bool:
    """``L = Σ^ω`` for a *safety* automaton: no finite word kills every
    run, i.e. the dead subset of the subset construction is unreachable.

    The same answer as ``is_empty(complement_safety(automaton))``, read
    off the dense subset DFA without naming the complement's states.
    An automaton with empty language (the canonical ∅ that
    :func:`repro.buchi.closure.closure` returns) is not universal.
    """
    form = automaton.to_dense()
    core = form.core
    if core.accepting != core.full_mask():
        if not form.live() & (1 << core.initial):
            return False
        raise ValueError(
            "safety_is_universal requires a safety automaton "
            "(all states accepting)"
        )
    dfa = subset_dfa(core)
    return dfa.initial != dfa.dead and not any(
        dfa.dead in row for s, row in enumerate(dfa.trans) if s != dfa.dead
    )


def complement_deterministic(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """Complement of a deterministic automaton (completed first).

    Copy 0 tracks the run; at any point the automaton may guess that no
    further accepting state occurs and jump to copy 1, which excludes
    accepting states.  Accepting = staying in copy 1 forever.
    """
    if not automaton.is_deterministic():
        raise ValueError("complement_deterministic requires a deterministic automaton")
    _CONSTRUCTIONS.labels(kind="two_copy").add()
    with _PHASES.phase("two_copy"):
        return _complement_deterministic(automaton)


def _complement_deterministic(automaton: BuchiAutomaton) -> BuchiAutomaton:
    m = automaton.completed()
    transitions: dict = {}
    states: set = set()
    for q in m.states:
        states.add((0, q))
        if q not in m.accepting:
            states.add((1, q))
    for (q, a), targets in m.transitions.items():
        (r,) = targets
        copy0 = {(0, r)}
        if r not in m.accepting:
            copy0.add((1, r))
        transitions[(0, q), a] = frozenset(copy0)
        if q not in m.accepting and r not in m.accepting:
            transitions[(1, q), a] = frozenset({(1, r)})
    return BuchiAutomaton(
        alphabet=m.alphabet,
        states=frozenset(states),
        initial=(0, m.initial),
        transitions=transitions,
        accepting=frozenset(s for s in states if s[0] == 1),
        name=f"¬{automaton.name}",
    )


def complement(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """General complementation, dispatching to the cheapest sound
    construction: safety → subset, deterministic → two-copy, otherwise
    rank-based (exponential — trim the input first and keep it small).

    Memoized on the (immutable) instance: inclusion sweeps complement
    the same automaton once per comparison otherwise, and the rank-based
    fallback is far too expensive to rebuild."""
    cached = getattr(automaton, "_complement_cache", None)
    if cached is not None:
        return cached
    result = _complement_dispatch(automaton)
    object.__setattr__(automaton, "_complement_cache", result)
    return result


def _complement_dispatch(automaton: BuchiAutomaton) -> BuchiAutomaton:
    from .emptiness import is_empty
    from .simulation import quotient_by_simulation

    with _PHASES.phase("trim"):
        trimmed = trim(automaton)
    with _PHASES.phase("emptiness"):
        empty = is_empty(trimmed)
    if empty:
        return universal_automaton(automaton.alphabet, name=f"¬{automaton.name}")
    if trimmed.accepting == trimmed.states:
        return complement_safety(trimmed)
    if automaton.is_deterministic():
        return complement_deterministic(automaton)
    # shrink as much as possible before the exponential construction
    with _PHASES.phase("quotient"):
        small = quotient_by_simulation(trimmed)
    if small.is_deterministic():
        return complement_deterministic(small)
    return complement_rank_based(small)


def complement_rank_based(automaton: BuchiAutomaton) -> BuchiAutomaton:
    """Kupferman–Vardi rank-based complementation.

    States are pairs ``(f, O)`` where ``f`` is a *level ranking* — a map
    from automaton states to ranks in ``[0, 2(n - |F|)]`` with accepting
    states ranked even — and ``O`` is the set of states "owing" a visit to
    an odd rank.  A word is in the complement iff it admits an infinite
    ranked run whose O-set empties infinitely often.
    """
    _CONSTRUCTIONS.labels(kind="rank").add()
    with _PHASES.phase("rank"):
        return _complement_rank_based(automaton)


def _complement_rank_based(automaton: BuchiAutomaton) -> BuchiAutomaton:
    # The whole search runs on the dense core: a level ranking is a
    # length-n tuple of ranks (-1 = not in support), an O-set is a
    # bitmask.  Dense keys are decoded back to the hashable naming
    # ((state, rank) pairs repr-sorted, frozenset O) only at the end.
    m = automaton
    form = m.to_dense()
    core = form.core
    n = core.n_states
    acc = core.accepting
    succ = core.succ
    max_rank = 2 * max(1, n - acc.bit_count())

    evens = [tuple(r for r in range(top + 1) if r % 2 == 0)
             for top in range(max_rank + 1)]
    alls = [tuple(range(top + 1)) for top in range(max_rank + 1)]

    def successors_of(f: tuple, owing: int, a: int):
        row = succ[a]
        # a successor ranking g must satisfy g(q') <= f(q) whenever
        # q' ∈ δ(q, a); runs with no successor simply die (harmless)
        bound = [-1] * n
        for q in range(n):
            fq = f[q]
            if fq < 0:
                continue
            targets = row[q]
            while targets:
                low = targets & -targets
                r = low.bit_length() - 1
                targets ^= low
                if bound[r] < 0 or fq < bound[r]:
                    bound[r] = fq
        support = [r for r in range(n) if bound[r] >= 0]
        if not support:
            # every run died: the empty ranking (with nothing owed) is
            # its own accepting successor on all symbols
            yield ((-1,) * n, 0)
            return
        choices = [
            evens[bound[r]] if (acc >> r) & 1 else alls[bound[r]]
            for r in support
        ]
        owing_targets = 0
        if owing:
            for q in iter_bits(owing):
                owing_targets |= row[q]
        for combo in product(*choices):
            g = [-1] * n
            for r, rank_r in zip(support, combo):
                g[r] = rank_r
            new_owing = 0
            if owing:
                t = owing_targets
                while t:
                    low = t & -t
                    if g[low.bit_length() - 1] % 2 == 0:
                        new_owing |= low
                    t ^= low
            else:
                for r, rank_r in zip(support, combo):
                    if rank_r % 2 == 0:
                        new_owing |= 1 << r
            yield (tuple(g), new_owing)

    # One maximal initial ranking suffices: ranks only decrease along a
    # run, so any accepting ranked run from a lower initial rank is also
    # one from the maximal rank.
    top_rank = max_rank if not (acc >> core.initial) & 1 else max_rank - (max_rank % 2)
    f0 = [-1] * n
    f0[core.initial] = top_rank
    # single fresh initial state simulating all initial rankings
    init = ("init",)
    states: set = {init}
    transitions: dict = {}
    frontier: list = []

    def add_state(s):
        if s not in states:
            states.add(s)
            frontier.append(s)

    for a, symbol in enumerate(form.symbols):
        targets = set(successors_of(tuple(f0), 0, a))
        for nxt in targets:
            add_state(nxt)
        if targets:
            transitions[init, symbol] = frozenset(targets)

    while frontier:
        s = frontier.pop()
        f, owing = s
        for a, symbol in enumerate(form.symbols):
            targets = set(successors_of(f, owing, a))
            for nxt in targets:
                add_state(nxt)
            if targets:
                transitions[s, symbol] = frozenset(targets)

    order = sorted(range(n), key=lambda i: repr(form.states[i]))
    decoded: dict = {init: init}

    def decode(s):
        out = decoded.get(s)
        if out is None:
            g, owing = s
            out = (
                tuple((form.states[i], g[i]) for i in order if g[i] >= 0),
                frozenset(form.states[r] for r in iter_bits(owing)),
            )
            decoded[s] = out
        return out

    result = BuchiAutomaton(
        alphabet=m.alphabet,
        states=frozenset(decode(s) for s in states),
        initial=init,
        transitions={
            (decode(s), a): frozenset(decode(t) for t in targets)
            for (s, a), targets in transitions.items()
        },
        accepting=frozenset(
            decode(s) for s in states if s != init and not s[1]
        ),
        name=f"¬{automaton.name}",
    )
    return trim(result)
