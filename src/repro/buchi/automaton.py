"""Büchi automata over infinite words.

Matches the paper's Section 2.4 definition: ``B = (Σ, Q, q0, δ, F)`` with
``δ : Q × Σ → P(Q)``; a run is accepting iff it visits ``F`` infinitely
often; ``L(B)`` is the set of words with an accepting run.

States may be any hashable objects (construction algorithms produce
tuples/frozensets); :meth:`BuchiAutomaton.renumbered` maps them to small
integers for readable output and faster hashing downstream.

Two ways in.  Outside input goes through the public constructor (or
:meth:`BuchiAutomaton.build`), which validates every field.  Kernel
output — closure, trim, the safety complement, union — is built by
:meth:`BuchiAutomaton._from_kernel` from a finished dense form, without
re-validation or re-interning: such an automaton carries its dense form
from birth, and its ``transitions`` is a read-only mapping whose dict is
built on first read (most kernel outputs are only ever run on the dense
core).  Equality, hashing and pickles read the same content either way;
a pickle carries a plain dict.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field, fields

from repro.automata.dense import DenseBuchi, DenseForm
from repro.automata.interner import Interner
from repro.automata.kernel import (
    adjacency,
    iter_bits,
    post,
    reachable_mask,
    scc_masks,
)
from repro.canonical import canonical_int_key, stable_token
from repro.omega.word import LassoWord, Symbol

State = Hashable


class AutomatonError(ValueError):
    """Raised when automaton data is malformed."""


class _LazyTransitions(Mapping):
    """A read-only transition mapping whose dict is built on first read.

    ``build`` is a zero-argument function returning the dict; it runs
    at most once per completed read and is dropped after, so the view
    stops holding what it was built from.  Two threads racing on the
    first read may both build, harmlessly: the builders are pure, and
    the dict is published before the builder is cleared, so a reader
    that finds neither a dict nor a builder finds the dict on re-read.
    Compares equal to a dict with the same items, in both directions.
    ``dense`` marks the default builder, whose dict holds one entry per
    non-empty successor mask of the dense core — so no explicit empty
    entry — which :func:`~repro.buchi.emptiness.trim` reads without
    building the dict.
    """

    __slots__ = ("_build", "_dict", "dense")

    def __init__(self, build, dense: bool = False):
        self._build = build
        self._dict = None
        self.dense = dense

    def _data(self) -> dict:
        data = self._dict
        if data is None:
            build = self._build
            if build is None:
                return self._dict
            data = build()
            self._dict = data
            self._build = None
        return data

    def __getitem__(self, key):
        return self._data()[key]

    def __iter__(self):
        return iter(self._data())

    def __len__(self) -> int:
        return len(self._data())

    def get(self, key, default=None):
        return self._data().get(key, default)

    def values(self):
        return self._data().values()

    def items(self):
        return self._data().items()

    def __eq__(self, other):
        if isinstance(other, _LazyTransitions):
            other = other._data()
        return self._data() == other

    def __repr__(self) -> str:
        return repr(self._data())


@dataclass(frozen=True)
class BuchiAutomaton:
    """An immutable nondeterministic Büchi automaton."""

    alphabet: frozenset
    states: frozenset
    initial: State
    transitions: Mapping[tuple[State, Symbol], frozenset]
    accepting: frozenset
    name: str = field(default="B", compare=False)

    def __post_init__(self):
        if not self.alphabet:
            raise AutomatonError("alphabet must be non-empty")
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} not in states")
        if not self.accepting <= self.states:
            raise AutomatonError("accepting states must be a subset of states")
        for (q, a), targets in self.transitions.items():
            if q not in self.states:
                raise AutomatonError(f"transition from unknown state {q!r}")
            if a not in self.alphabet:
                raise AutomatonError(f"transition on unknown symbol {a!r}")
            if not targets <= self.states:
                raise AutomatonError(
                    f"transition ({q!r}, {a!r}) targets unknown states"
                )

    def __hash__(self) -> int:
        """A hash over the fields ``==`` compares (``name`` excluded),
        reading ``transitions`` as the frozenset of its items.  Memoized
        on the instance beside the dense form, so it never rides in a
        pickle (:meth:`__getstate__`)."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.alphabet,
                self.states,
                self.initial,
                frozenset(self.transitions.items()),
                self.accepting,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    @classmethod
    def build(
        cls,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        initial: State,
        transitions: Mapping[tuple[State, Symbol], Iterable[State]],
        accepting: Iterable[State],
        name: str = "B",
    ) -> "BuchiAutomaton":
        """Convenience constructor that freezes all collections."""
        return cls(
            alphabet=frozenset(alphabet),
            states=frozenset(states),
            initial=initial,
            transitions={
                key: frozenset(targets) for key, targets in transitions.items()
            },
            accepting=frozenset(accepting),
            name=name,
        )

    @classmethod
    def _from_kernel(
        cls, form: DenseForm, name: str, alphabet: frozenset, transitions=None,
        accepting: frozenset | None = None,
    ) -> "BuchiAutomaton":
        """The kernel-output constructor: the automaton ``form`` denotes
        under its state names, with ``form`` as its dense form.

        ``form`` must be numbered in :meth:`_state_interner` order, so the
        ``to_dense``/``renumbered`` correspondence holds, and
        ``alphabet`` must be the set of its symbols.  Nothing is
        validated: the kernel produced it.  ``transitions`` is a
        zero-argument builder of the transition dict, run on first read;
        by default the dict holds one entry per non-empty successor mask
        of the core.  ``accepting`` is the accepting-state set when the
        caller holds it; by default it is read off the core."""
        core = form.core
        names = form.states
        states = frozenset(names)
        self = object.__new__(cls)
        self.__dict__.update(
            alphabet=alphabet,
            states=states,
            initial=names[core.initial],
            transitions=(
                _LazyTransitions(lambda: _dense_transitions(form), dense=True)
                if transitions is None else _LazyTransitions(transitions)
            ),
            accepting=(
                accepting if accepting is not None
                else states if core.accepting == core.full_mask()
                else form.unintern_mask(core.accepting)
            ),
            name=name,
            _dense_form=form,
        )
        return self

    def _renamed(self, name: str) -> "BuchiAutomaton":
        """This automaton under another ``name``, sharing every field and
        the dense form (the form carries no name)."""
        twin = object.__new__(BuchiAutomaton)
        twin.__dict__.update(
            {field_name: self.__dict__[field_name] for field_name in _FIELDS},
            name=name,
            _dense_form=self.to_dense(),
        )
        return twin

    # -- basic queries ----------------------------------------------------------

    def successors(self, q: State, a: Symbol) -> frozenset:
        """``δ(q, a)`` (empty when no transition is defined)."""
        return self.transitions.get((q, a), frozenset())

    def post(self, subset: frozenset, a: Symbol) -> frozenset:
        """The subset-construction step ``δ̂(S, a)``."""
        out: set = set()
        for q in subset:
            out |= self.successors(q, a)
        return frozenset(out)

    def is_deterministic(self) -> bool:
        """At most one successor per (state, symbol)."""
        return all(len(t) <= 1 for t in self.transitions.values())

    def is_complete(self) -> bool:
        """At least one successor per (state, symbol)."""
        return all(
            self.successors(q, a) for q in self.states for a in self.alphabet
        )

    def transition_count(self) -> int:
        return sum(len(t) for t in self.transitions.values())

    # -- graph structure ----------------------------------------------------------

    def edges(self) -> Iterable[tuple[State, Symbol, State]]:
        for (q, a), targets in self.transitions.items():
            for r in targets:
                yield (q, a, r)

    def reachable_states(self, start: State | None = None) -> frozenset:
        """States reachable from ``start`` (default: the initial state)."""
        form = self.to_dense()
        if start is None:
            return form.unintern_mask(form.reachable())
        index = form.state_index.get(start)
        if index is None:
            # not a state: nothing to follow, mirroring the graph walk
            return frozenset({start})
        return form.unintern_mask(reachable_mask(form.core, 1 << index))

    def strongly_connected_components(self) -> list[frozenset]:
        """Tarjan's SCCs of the transition graph (symbols ignored)."""
        form = self.to_dense()
        adj = adjacency(form.core)
        return [form.unintern_mask(c) for c in scc_masks(adj)]

    # -- acceptance on lasso words ----------------------------------------------

    def accepts(self, word: LassoWord) -> bool:
        """Whether ``word = u · v^ω ∈ L(B)``.

        Subset-steps through ``u`` on the dense core, then intersects
        with the cycle's winning-state mask — memoized per cycle on the
        dense form, so checking many lassos sharing cycles against the
        same automaton pays the cycle analysis once.
        """
        if not word.symbols() <= self.alphabet:
            raise AutomatonError(
                f"word uses symbols outside the alphabet: "
                f"{word.symbols() - self.alphabet!r}"
            )
        form = self.to_dense()
        symbol = form.symbol_index
        succ = form.core.succ
        current = 1 << form.core.initial
        for a in word.prefix:
            current = post(succ[symbol[a]], current)
            if not current:
                return False
        return bool(current & form.cycle_win(tuple(symbol[a] for a in word.cycle)))

    def language(self):
        """``L(B)`` as a semantic :class:`~repro.omega.language.OmegaLanguage`."""
        from repro.omega.language import OmegaLanguage

        return OmegaLanguage(self.alphabet, self.accepts, name=f"L({self.name})")

    # -- transformations ---------------------------------------------------------

    def with_accepting(self, accepting: Iterable[State]) -> "BuchiAutomaton":
        return BuchiAutomaton(
            alphabet=self.alphabet,
            states=self.states,
            initial=self.initial,
            transitions=dict(self.transitions),
            accepting=frozenset(accepting),
            name=self.name,
        )

    def restricted_to(self, keep: Iterable[State]) -> "BuchiAutomaton":
        """The sub-automaton on ``keep`` (must contain the initial state)."""
        keep = frozenset(keep)
        if self.initial not in keep:
            raise AutomatonError("cannot drop the initial state")
        transitions = {
            (q, a): targets & keep
            for (q, a), targets in self.transitions.items()
            if q in keep and targets & keep
        }
        return BuchiAutomaton(
            alphabet=self.alphabet,
            states=keep,
            initial=self.initial,
            transitions=transitions,
            accepting=self.accepting & keep,
            name=self.name,
        )

    def completed(self, sink: State = "⊥") -> "BuchiAutomaton":
        """A complete automaton with the same language: missing transitions
        go to a fresh non-accepting sink."""
        if self.is_complete():
            return self
        while sink in self.states:
            sink = (sink, "'")
        states = self.states | {sink}
        transitions: dict = {}
        for q in states:
            for a in self.alphabet:
                targets = self.successors(q, a) if q in self.states else frozenset()
                transitions[q, a] = targets if targets else frozenset({sink})
        transitions.update(
            {(sink, a): frozenset({sink}) for a in self.alphabet}
        )
        return BuchiAutomaton(
            alphabet=self.alphabet,
            states=states,
            initial=self.initial,
            transitions=transitions,
            accepting=self.accepting,
            name=self.name,
        )

    def canonical_key(self) -> str:
        """A structural cache key, invariant under state renaming.

        Two automata that are isomorphic up to a renaming of their
        states (same alphabet, same transition structure, same
        initial/accepting marking) get the same key; automata with
        different structure get different keys.  Built on the canonical
        labeling of :func:`repro.canonical.canonical_int_key`, fed the
        dense form's ints — the key hashes the *full* renumbered
        transition relation, so equal keys imply isomorphism, which is
        what makes it safe as a memoization key in :mod:`repro.service`
        (DESIGN.md §8).
        Memoized on the instance beside the dense form, so it never rides
        in a pickle (:meth:`__getstate__`); a declined key
        (:class:`~repro.canonical.CanonicalizationError`) is not."""
        key = self.__dict__.get("_canonical_key")
        if key is None:
            key = self._structural_key()
            object.__setattr__(self, "_canonical_key", key)
        return key

    def _structural_key(self) -> str:
        """The dense core keyed in ints: colour ``2·initial + accepting``,
        edge label the rank of the symbol's token in the alphabet's."""
        form = self.to_dense()
        core = form.core
        tokens = [stable_token(a) for a in form.symbols]
        table = sorted(tokens)
        accepting = core.accepting
        edges = []
        for token, row in zip(tokens, core.succ):
            label = table.index(token)
            for q, mask in enumerate(row):
                while mask:
                    r = mask.bit_length() - 1
                    edges.append((label, q, r))
                    mask ^= 1 << r
        return "buchi:" + canonical_int_key(
            [2 * (q == core.initial) + (accepting >> q & 1)
             for q in range(core.n_states)],
            edges,
            ("buchi", tuple(table)),
        )

    # -- the dense kernel bridge --------------------------------------------------

    def _state_interner(self) -> Interner:
        """The repo's one state-numbering order: BFS from the initial
        state (symbols in repr order, successors in repr order), then
        any unreachable states in repr order.  Shared by
        :meth:`renumbered` and :meth:`to_dense`, so dense index ``i``
        always names the same state ``renumbered()`` calls ``i``."""
        # one repr-keyed sort of the state set, then integer ranks for
        # every successor sort below (repr is recomputed per element by
        # each sorted() call otherwise — the dominant cost at scale);
        # materialized lazily: deterministic automata never need it
        by_repr = None
        rank = None
        symbols = sorted(self.alphabet, key=repr)
        transitions = self.transitions
        initial = self.initial
        seen = {initial}
        add_seen = seen.add
        order = [initial]
        add = order.append
        i = 0
        while i < len(order):
            q = order[i]
            i += 1
            for a in symbols:
                targets = transitions.get((q, a))
                if not targets:
                    continue
                if len(targets) == 1:
                    (r,) = targets
                    if r not in seen:
                        add_seen(r)
                        add(r)
                    continue
                if seen.issuperset(targets):
                    continue
                if len(targets) <= 8:
                    # small tie-sets: sorting by repr directly costs a few
                    # repr calls; the global rank table costs |Q| of them
                    ordered = sorted(targets, key=repr)
                elif rank is None:
                    by_repr = sorted(self.states, key=repr)
                    rank = {q: i for i, q in enumerate(by_repr)}.__getitem__
                    ordered = sorted(targets, key=rank)
                else:
                    ordered = sorted(targets, key=rank)
                for r in ordered:
                    if r not in seen:
                        add_seen(r)
                        add(r)
        if len(order) < len(self.states):
            if by_repr is None:
                by_repr = sorted(self.states, key=repr)
            for q in by_repr:
                if q not in seen:
                    add(q)
        return Interner.from_ordered(order)

    def to_dense(self) -> DenseForm:
        """The automaton's dense form (memoized on this instance).

        States are numbered by :meth:`_state_interner` (the initial
        state is 0), symbols by repr order.  The form is cached with
        ``object.__setattr__`` — the dataclass is frozen, but ``eq`` and
        ``hash`` read fields only, so the cache never affects identity;
        a racing double-compute writes the same value twice, harmlessly.
        The memo is not pickled (:meth:`__getstate__`): the numbering
        depends only on the fields, so an unpickled copy rebuilds the
        same form on its first call.
        """
        form = getattr(self, "_dense_form", None)
        if form is not None:
            return form
        interner = self._state_interner()
        states = interner.values()
        symbols = tuple(sorted(self.alphabet, key=repr))
        symbol_index = {a: i for i, a in enumerate(symbols)}
        n = len(states)
        index = interner.index_map()
        succ = [[0] * n for _ in symbols]
        for (q, a), targets in self.transitions.items():
            if not targets:
                continue
            mask = 0
            for r in targets:
                mask |= 1 << index[r]
            succ[symbol_index[a]][index[q]] = mask
        accepting = 0
        for q in self.accepting:
            accepting |= 1 << index[q]
        core = DenseBuchi(
            n_states=n,
            n_symbols=len(symbols),
            initial=0,
            succ=tuple(tuple(row) for row in succ),
            accepting=accepting,
        )
        form = DenseForm(core, states, symbols)
        object.__setattr__(self, "_dense_form", form)
        return form

    def __getstate__(self) -> dict:
        """Pickle the dataclass fields only, never a memo (the dense
        form, the canonical key, the inclusion and complement caches): a
        pickle is then a function of the automaton's value, whatever has
        been computed on it, and carries no derived data the receiver
        can rebuild.  A lazy ``transitions`` travels as its plain dict."""
        state = {name: self.__dict__[name] for name in _FIELDS}
        transitions = state["transitions"]
        if isinstance(transitions, _LazyTransitions):
            state["transitions"] = transitions._data()
        return state

    def renumbered(self, name: str | None = None) -> "BuchiAutomaton":
        """An isomorphic copy with states ``0..n-1`` (BFS order from the
        initial state, then the rest in repr order) — the numbering of a
        memoized dense form when there is one."""
        form = self.__dict__.get("_dense_form")
        index = (
            form.state_index if form is not None
            else self._state_interner().index_map()
        )
        return BuchiAutomaton(
            alphabet=self.alphabet,
            states=frozenset(range(len(index))),
            initial=0,
            transitions={
                (index[q], a): frozenset(index[r] for r in targets)
                for (q, a), targets in self.transitions.items()
            },
            accepting=frozenset(index[q] for q in self.accepting),
            name=self.name if name is None else name,
        )

    def __repr__(self) -> str:
        return (
            f"BuchiAutomaton({self.name!r}, |Q|={len(self.states)}, "
            f"|δ|={self.transition_count()}, |F|={len(self.accepting)})"
        )


#: What a pickle of a :class:`BuchiAutomaton` carries.
_FIELDS = tuple(f.name for f in fields(BuchiAutomaton))


def from_dense(form: DenseForm, name: str = "B") -> BuchiAutomaton:
    """The automaton a dense form denotes, over int states ``0..n-1``.

    Lossless up to one representational quirk: a dense core cannot tell
    "no transition entry" from an explicit empty-target entry (both mean
    ``δ(q, a) = ∅``), so explicit empty entries are not reproduced —
    ``from_dense(B.to_dense())`` equals ``B.renumbered()`` for any
    automaton without them.
    """
    core = form.core
    n = core.n_states
    return BuchiAutomaton(
        alphabet=frozenset(form.symbols),
        states=frozenset(range(n)),
        initial=core.initial,
        transitions=_dense_transitions(form, range(n)),
        accepting=frozenset(iter_bits(core.accepting)),
        name=name,
    )


def _dense_transitions(form: DenseForm, names=None, by_state=False) -> dict:
    """The transition dict ``form``'s core denotes under ``names``
    (default: the form's own): one entry per non-empty successor mask,
    symbols outer and states inner (``by_state``: states outer), equal
    masks sharing one target frozenset."""
    core = form.core
    names = form.states if names is None else names
    symbols = form.symbols
    succ = core.succ
    states = range(core.n_states)
    cells = (
        ((q, a) for q in states for a in range(core.n_symbols)) if by_state
        else ((q, a) for a in range(core.n_symbols) for q in states)
    )
    shared: dict = {}
    out: dict = {}
    for q, a in cells:
        mask = succ[a][q]
        if mask:
            targets = shared.get(mask)
            if targets is None:
                targets = shared[mask] = frozenset(
                    [names[r] for r in iter_bits(mask)]
                )
            out[names[q], symbols[a]] = targets
    return out


def _interner_order(core, names) -> list:
    """The indices of ``core`` in the order
    :meth:`BuchiAutomaton._state_interner` gives the automaton the core
    denotes under ``names``, found on the core instead of the transition
    dict: BFS from the initial state with symbols by
    index (a dense form's repr order), the new targets of one
    ``(state, symbol)`` by the repr of their names, then the states not
    reached by the repr of their names."""
    def by_repr(mask: int) -> list:
        return sorted(iter_bits(mask), key=lambda r: repr(names[r]))

    succ = core.succ
    seen = 1 << core.initial
    order = [core.initial]
    for q in order:
        for row in succ:
            fresh = row[q] & ~seen
            if not fresh:
                continue
            seen |= fresh
            if fresh & (fresh - 1):
                order.extend(by_repr(fresh))
            else:
                order.append(fresh.bit_length() - 1)
    rest = core.full_mask() & ~seen
    if rest:
        order.extend(by_repr(rest))
    return order


# -- shared graph helpers (hashable-graph callers: ctl, systems, generalized) ---


def _graph_reachable(start: Iterable, adjacency: Mapping) -> set:
    seen = set(start)
    frontier = list(seen)
    while frontier:
        n = frontier.pop()
        for m in adjacency.get(n, ()):
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return seen


def _tarjan(nodes: Iterable, adjacency: Mapping) -> list[frozenset]:
    """Tarjan's strongly connected components, iterative."""
    nodes = list(nodes)
    index_of: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[frozenset] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(adjacency.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == node:
                        break
                components.append(frozenset(component))
    return components


def _is_cyclic_component(component: frozenset, adjacency: Mapping) -> bool:
    """Whether the SCC carries at least one edge (non-trivial, or a
    self-loop)."""
    if len(component) > 1:
        return True
    (node,) = component
    return node in adjacency.get(node, ())
