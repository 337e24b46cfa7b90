"""Boolean operations (union, intersection) and small constructors.

Closure of Büchi-definable languages under union, intersection (this
module) and complementation (:mod:`repro.buchi.complement`) is what makes
them a Boolean algebra — the lattice on which the paper's Theorem 2 is
instantiated in Section 2.4.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.dense import DenseForm
from repro.automata.kernel import (
    adjacency,
    is_cyclic_scc,
    iter_bits,
    product_core,
    reachable_mask,
    reindexed,
    scc_masks,
    union_core,
)
from repro.omega.word import LassoWord, Symbol

from .automaton import AutomatonError, BuchiAutomaton, State, _interner_order


def _check_alphabets(a: BuchiAutomaton, b: BuchiAutomaton) -> None:
    if a.alphabet != b.alphabet:
        raise AutomatonError(
            f"alphabet mismatch: {sorted(map(str, a.alphabet))} vs "
            f"{sorted(map(str, b.alphabet))}"
        )


def union(a: BuchiAutomaton, b: BuchiAutomaton, name: str | None = None) -> BuchiAutomaton:
    """``L(a) ∪ L(b)`` — disjoint copies plus a fresh initial state whose
    transitions simulate both original initial states."""
    _check_alphabets(a, b)
    form_a, form_b = a.to_dense(), b.to_dense()
    # The fresh initial state has no incoming edges, so its acceptance
    # flag never affects an infinite run: union_core leaves it
    # non-accepting.  Blocks: fresh state, a's states, b's states.
    blocks = union_core(form_a.core, form_b.core)
    names = (
        (("∪", None),)
        + tuple([("l", q) for q in form_a.states])
        + tuple([("r", q) for q in form_b.states])
    )
    order = _interner_order(blocks, names)
    position = [0] * len(order)
    for i, q in enumerate(order):
        position[q] = i
    form = DenseForm(
        reindexed(blocks, order),
        tuple([names[q] for q in order]),
        form_a.symbols,
    )
    # the blocks are successor-closed copies of the inputs, so lasso
    # membership can reuse the inputs' memoized cycle analyses
    n_a = form_a.core.n_states
    form.union_cycle_hint(
        form_a,
        form_b,
        tuple(position[1:1 + n_a]),
        tuple(position[1 + n_a:]),
    )

    def transitions() -> dict:
        # the inputs' own entries, explicit empty ones included, which a
        # dense core cannot represent; then the fresh initial state's
        out: dict = {}
        sides = [
            (m, dict(zip(m_form.states, names[offset:])))
            for offset, m, m_form in ((1, a, form_a), (1 + n_a, b, form_b))
        ]
        for m, tag in sides:
            for (q, sym), targets in m.transitions.items():
                out[tag[q], sym] = frozenset([tag[r] for r in targets])
        for sym in a.alphabet:
            merged = [
                tag[r]
                for m, tag in sides
                for r in m.transitions.get((m.initial, sym), ())
            ]
            if merged:
                out[names[0], sym] = frozenset(merged)
        return out

    return BuchiAutomaton._from_kernel(
        form, name or f"({a.name} ∪ {b.name})", a.alphabet, transitions
    )


def intersection(
    a: BuchiAutomaton, b: BuchiAutomaton, name: str | None = None
) -> BuchiAutomaton:
    """``L(a) ∩ L(b)`` via the standard two-phase product.

    Phase 0 waits for ``a`` to accept, phase 1 for ``b``; the product
    accepts when phase flips through (accepting of ``a`` seen, then of
    ``b``) infinitely often.
    """
    _check_alphabets(a, b)
    form_a, form_b = a.to_dense(), b.to_dense()
    core = product_core(form_a.core, form_b.core)
    n_b = form_b.core.n_states
    # Index layout of product_core: (p*n_b + q)*2 + phase.
    names: list = [None] * core.n_states
    for p, p_state in enumerate(form_a.states):
        for q, q_state in enumerate(form_b.states):
            base = (p * n_b + q) * 2
            names[base] = (p_state, q_state, 0)
            names[base + 1] = (p_state, q_state, 1)
    states = frozenset(names)
    transitions: dict = {}
    for a_i, sym in enumerate(form_a.symbols):
        row = core.succ[a_i]
        for pq in range(core.n_states):
            mask = row[pq]
            if mask:
                transitions[names[pq], sym] = frozenset(
                    names[r] for r in iter_bits(mask)
                )
    # acceptance: phase 1 with b accepting — the 1 -> 0 flip, which happens
    # infinitely often exactly when both automata accept infinitely often
    accepting = frozenset((p, q, 1) for p in a.states for q in b.accepting)
    return BuchiAutomaton(
        alphabet=a.alphabet,
        states=frozenset(states),
        initial=(a.initial, b.initial, 0),
        transitions=transitions,
        accepting=accepting,
        name=name or f"({a.name} ∩ {b.name})",
    )


def intersection_is_empty(a: BuchiAutomaton, b: BuchiAutomaton) -> bool:
    """``L(a) ∩ L(b) = ∅``: the same answer as
    ``is_empty(intersection(a, b))``, decided on the dense product core
    without naming the product's ``(p, q, phase)`` states — no cyclic
    SCC of the product's reachable part holds an accepting state."""
    _check_alphabets(a, b)
    core = product_core(a.to_dense().core, b.to_dense().core)
    adj = adjacency(core)
    return not any(
        component & core.accepting and is_cyclic_scc(component, adj)
        for component in scc_masks(adj, reachable_mask(core))
    )


def intersect_many(automata: Sequence[BuchiAutomaton]) -> BuchiAutomaton:
    """Left fold of :func:`intersection` over one or more automata."""
    if not automata:
        raise AutomatonError("need at least one automaton")
    result = automata[0]
    for m in automata[1:]:
        result = intersection(result, m)
    return result


def single_word_automaton(
    alphabet: Iterable[Symbol], word: LassoWord, name: str | None = None
) -> BuchiAutomaton:
    """The automaton accepting exactly ``{u · v^ω}``."""
    alphabet = frozenset(alphabet)
    u, v = word.prefix, word.cycle
    states = [("u", i) for i in range(len(u))] + [("v", i) for i in range(len(v))]
    transitions: dict = {}
    for i, sym in enumerate(u):
        nxt = ("u", i + 1) if i + 1 < len(u) else ("v", 0)
        transitions[("u", i), sym] = frozenset({nxt})
    for i, sym in enumerate(v):
        nxt = ("v", (i + 1) % len(v))
        transitions[("v", i), sym] = frozenset({nxt})
    initial = ("u", 0) if u else ("v", 0)
    return BuchiAutomaton(
        alphabet=alphabet,
        states=frozenset(states),
        initial=initial,
        transitions=transitions,
        accepting=frozenset({("v", 0)}),
        name=name or f"word({word!r})",
    )


def suffix_language_automaton(automaton: BuchiAutomaton, state: State) -> BuchiAutomaton:
    """``B(q)`` — the same automaton started at ``state`` (paper §4.4
    notation, equally useful for word automata)."""
    if state not in automaton.states:
        raise AutomatonError(f"{state!r} is not a state")
    return BuchiAutomaton(
        alphabet=automaton.alphabet,
        states=automaton.states,
        initial=state,
        transitions=dict(automaton.transitions),
        accepting=automaton.accepting,
        name=f"{automaton.name}({state!r})",
    )


def finite_prefix_automaton(
    alphabet: Iterable[Symbol], prefixes: Iterable[Sequence[Symbol]], name: str = "pfx"
) -> BuchiAutomaton:
    """The safety automaton for "the word starts with one of ``prefixes``"
    (then anything): a trie over the prefixes with a universal tail.

    A convenient source of safety languages for tests and benchmarks.
    """
    alphabet = frozenset(alphabet)
    prefix_list = [tuple(p) for p in prefixes]
    trie_nodes = {()}
    for p in prefix_list:
        for i in range(len(p) + 1):
            trie_nodes.add(p[: i])
    transitions: dict = {}
    done = "✓"
    for node in trie_nodes:
        if node in prefix_list:
            continue
        for a in alphabet:
            nxt = node + (a,)
            if nxt in trie_nodes:
                target = done if nxt in prefix_list else nxt
                transitions[node, a] = frozenset({target})
    for a in alphabet:
        transitions[done, a] = frozenset({done})
    states = {n for n in trie_nodes if n not in prefix_list} | {done}
    initial = done if () in prefix_list else ()
    return BuchiAutomaton(
        alphabet=alphabet,
        states=frozenset(states),
        initial=initial,
        transitions=transitions,
        accepting=frozenset(states),
        name=name,
    )
