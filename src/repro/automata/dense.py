"""Dense automaton cores: int-indexed states, bitmask successor sets.

The hashable-state :class:`~repro.buchi.automaton.BuchiAutomaton` is the
paper-faithful representation; every hot loop in this repo ultimately
walks its transition structure.  :class:`DenseBuchi` is the same
structure with all identity stripped out: states are ``0..n-1``, symbols
are ``0..k-1``, a successor set is one Python int used as a bitmask
(bit ``q`` set ⇔ state ``q`` is a successor), and the accepting set is a
bitmask too.  Set union is ``|``, intersection ``&``, emptiness
``not mask`` — no hashing, no per-element allocation.

The algorithms over these cores live in :mod:`repro.automata.kernel`;
this module holds only the data types plus :class:`DenseForm`, the
bridge object pairing a core with the interned state/symbol identities
of the automaton it came from (built by ``BuchiAutomaton.to_dense()``).

Layering: outside ``repro/automata``, only the ``buchi`` and ``rabin``
packages may import this module (checks rule RC007) — everything else
goes through the public Büchi/Rabin facades.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DenseBuchi:
    """A Büchi automaton over ``0..n_states-1`` × ``0..n_symbols-1``.

    ``succ[a][q]`` is the bitmask of ``δ(q, a)``; ``accepting`` is the
    bitmask of ``F``.  Immutable and purely structural — two cores are
    equal iff their automata are identical under the numbering.
    """

    n_states: int
    n_symbols: int
    initial: int
    succ: tuple  # succ[a][q] -> int bitmask of successors
    accepting: int

    def __post_init__(self):
        if not 0 <= self.initial < self.n_states:
            raise ValueError(f"initial {self.initial} out of range")
        full = (1 << self.n_states) - 1
        if self.accepting & ~full:
            raise ValueError("accepting mask names states out of range")
        if len(self.succ) != self.n_symbols:
            raise ValueError("need one successor table per symbol")
        for row in self.succ:
            if len(row) != self.n_states:
                raise ValueError("successor table has wrong state count")

    def full_mask(self) -> int:
        """The bitmask of all states."""
        return (1 << self.n_states) - 1

    def post(self, mask: int, a: int) -> int:
        """The subset-construction step ``δ̂(S, a)`` on bitmasks."""
        row = self.succ[a]
        out = 0
        while mask:
            low = mask & -mask
            out |= row[low.bit_length() - 1]
            mask ^= low
        return out

    def transition_count(self) -> int:
        return sum(m.bit_count() for row in self.succ for m in row)


@dataclass(frozen=True)
class DenseDfa:
    """A subset-construction DFA over a dense core.

    States index into ``subsets`` (each entry the state-set bitmask of
    the underlying core); ``trans[s][a]`` is the successor DFA state;
    ``dead`` is the index of the empty subset (always present, with
    self-loops on every symbol) — its reachability is what bad-prefix
    analysis reads off.
    """

    n_symbols: int
    subsets: tuple  # DFA state -> core state-set bitmask
    trans: tuple  # trans[s][a] -> DFA state
    initial: int
    dead: int

    def run(self, word) -> int:
        current = self.initial
        for a in word:
            current = self.trans[current][a]
        return current


class DenseForm:
    """A dense core plus the interned identities it abstracts.

    ``states[i]`` / ``symbols[a]`` are the original hashable values at
    dense index ``i`` / ``a`` (first-appearance BFS order for states,
    repr-sorted for symbols — the exact order ``renumbered()`` uses);
    ``state_index`` / ``symbol_index`` invert them (the state index is
    built on first use).  The reachable and live masks are computed
    lazily and cached, so every algorithm that needs them on the same
    automaton shares one computation; a constructor that already knows
    them passes them in.
    """

    __slots__ = (
        "core", "states", "symbols", "symbol_index", "_state_index",
        "_reachable", "_live", "_cycle_wins", "_union_hint",
    )

    def __init__(self, core: DenseBuchi, states: tuple, symbols: tuple,
                 reachable: int | None = None, live: int | None = None):
        self.core = core
        self.states = states
        self.symbols = symbols
        self.symbol_index = {a: i for i, a in enumerate(symbols)}
        self._state_index = None
        # a constructor that knows the masks already may seed them
        self._reachable = reachable
        self._live = live
        self._cycle_wins: dict = {}
        # set by repro.buchi.operations.union: (left form, right form,
        # left index map, right index map) — see union_cycle_hint()
        self._union_hint = None

    @property
    def state_index(self) -> dict:
        """``{state: index}``, built on first use: most forms are only
        ever walked by index."""
        index = self._state_index
        if index is None:
            index = self._state_index = {
                s: i for i, s in enumerate(self.states)
            }
        return index

    def reachable(self) -> int:
        """Bitmask of states reachable from the initial state (cached)."""
        if self._reachable is None:
            from .kernel import reachable_mask

            self._reachable = reachable_mask(self.core)
        return self._reachable

    def live(self) -> int:
        """Bitmask of states with non-empty language (cached)."""
        if self._live is None:
            from .kernel import live_mask

            self._live = live_mask(self.core)
        return self._live

    def cycle_win(self, cycle: tuple) -> int:
        """Memoized :func:`~repro.automata.kernel.cycle_win_mask` for a
        tuple of symbol indices — lasso membership against the same
        automaton re-pays only the prefix subset-stepping per word.

        A cached rotation is reused instead of recomputing: ``q`` wins
        ``(c0 · w)^ω`` iff some ``c0``-successor of ``q`` wins
        ``(w · c0)^ω``, so the win mask of a rotated cycle is one
        predecessor sweep per rotated-off symbol."""
        wins = self._cycle_wins
        mask = wins.get(cycle)
        if mask is not None:
            return mask
        if self._union_hint is not None:
            mask = self._union_cycle_win(cycle)
            wins[cycle] = mask
            return mask
        length = len(cycle)
        for d in range(1, length):
            if length % d == 0 and cycle[:d] * (length // d) == cycle:
                mask = self.cycle_win(cycle[:d])
                wins[cycle] = mask
                return mask
        for k in range(1, length):
            target = wins.get(cycle[k:] + cycle[:k])
            if target is None:
                continue
            head = tuple(self.core.succ[a] for a in cycle[:k])
            mask = 0
            remaining = self.reachable()
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                cur = low
                for row in head:
                    nxt = 0
                    while cur:
                        b = cur & -cur
                        nxt |= row[b.bit_length() - 1]
                        cur ^= b
                    cur = nxt
                    if not cur:
                        break
                if cur & target:
                    mask |= low
            wins[cycle] = mask
            return mask
        from .kernel import cycle_win_mask

        mask = cycle_win_mask(self.core, cycle, self.reachable())
        wins[cycle] = mask
        return mask

    def union_cycle_hint(
        self, left: "DenseForm", right: "DenseForm",
        left_map: tuple, right_map: tuple,
    ) -> None:
        """Record that this automaton is the disjoint union of ``left``
        and ``right`` behind a fresh initial state (this form's index 0,
        with no incoming edges), ``left_map[q]``/``right_map[q]`` giving
        the index here of the child's state ``q``.

        Blocks are successor-closed, so a union state wins a cycle iff
        it wins in its own child — :meth:`cycle_win` then maps the
        children's (memoized) win masks instead of re-analyzing the
        union graph, and decides the fresh initial state by one step
        into the rotated cycle's mask."""
        self._union_hint = (left, right, left_map, right_map)

    def _mapped_child_wins(self, cycle: tuple) -> int:
        left, right, left_map, right_map = self._union_hint
        mask = 0
        for child, index_map in ((left, left_map), (right, right_map)):
            child_win = child.cycle_win(cycle)
            while child_win:
                low = child_win & -child_win
                child_win ^= low
                mask |= 1 << index_map[low.bit_length() - 1]
        return mask

    def _union_cycle_win(self, cycle: tuple) -> int:
        mask = self._mapped_child_wins(cycle)
        rotated = cycle[1:] + cycle[:1]
        rotated_mask = (
            mask if rotated == cycle else self._mapped_child_wins(rotated)
        )
        first_step = self.core.succ[cycle[0]][self.core.initial]
        if first_step & rotated_mask:
            mask |= 1 << self.core.initial
        return mask

    def unintern_mask(self, mask: int) -> frozenset:
        """The original state identities named by a bitmask."""
        states = self.states
        out = []
        while mask:
            low = mask & -mask
            out.append(states[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def restricted(self, keep: int, accepting: int) -> "DenseForm":
        """The sub-automaton on ``keep``, a set of states that are all
        reachable and live, with accepting set ``accepting & keep``.

        Kept states keep their relative order.  No state outside the live
        set reaches one inside it, so each kept state is first found, in
        the state-interner BFS that numbered this form, from a kept state:
        the filtered order is the one that BFS gives the sub-automaton,
        and the result is the form its ``to_dense()`` would build.  All of
        its states are reachable and live, so both masks come seeded."""
        from .kernel import iter_bits, reindexed

        order = list(iter_bits(keep))
        core = reindexed(self.core, order, accepting)
        full = core.full_mask()
        states = self.states
        return DenseForm(
            core, tuple([states[q] for q in order]), self.symbols,
            reachable=full, live=full,
        )

    def __repr__(self) -> str:
        return (
            f"DenseForm(|Q|={self.core.n_states}, "
            f"|Σ|={self.core.n_symbols})"
        )
