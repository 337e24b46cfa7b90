"""Monitor compilation: ``decompose()`` output → dense tables, memoized.

Since PR 10 the compilation source of truth is the paper's own split:
:func:`repro.analysis.decompose` factors the policy into its safety
closure and dense (live) part, and each conjunct is lowered onto the
machinery that can actually decide it on a finite prefix:

* the **safety conjunct** ``cl(A_φ)`` feeds the existing
  :class:`SubsetTable` falsifier — bad prefixes of ``cl(L)`` and of
  ``L`` coincide (a prefix is extendable into ``cl(L)`` iff it is a
  prefix of some word of ``L``), so the product of the ``φ``-side and
  ``¬φ``-side subset tables issues verdicts bit-identical to the direct
  ``translate() → table`` construction;
* the **liveness conjunct** ``A_φ ∪ ¬cl(A_φ)`` feeds a new
  :class:`BoundTracker` — its determinized live-restricted subset run
  with a *good* flag per edge (taking the edge validates an accepting
  visit).  Sessions count events since the last good edge; under a
  finitary horizon (Chatterjee–Fijalkow) an exceeded wait falsifies the
  bounded-liveness obligation, which is what turns "inconclusive
  forever" into the four-valued :class:`~repro.rv.verdicts.Verdict4`.

The classes:

* :class:`~repro.buchi.subset.SubsetTable` — the *live-restricted
  subset automaton* of a Büchi automaton, the repository's one prefix
  DFA, built by the dense kernel's subset construction.  One event step
  is two tuple indexings.  The empty subset is materialized as an
  absorbing dead state, so stepping never branches.
* :class:`MonitorTable` — the product of two subset tables with a
  three-valued verdict attached to every state; definite verdicts are
  absorbing.
* :class:`DecomposedMonitor` — a :class:`MonitorTable` plus the
  :class:`BoundTracker` of the liveness conjunct;
  :meth:`DecomposedMonitor.compile` is the one compilation path, and
  what the :class:`CompileCache` emits.
* :class:`CompileCache` — an LRU keyed by the *canonical* formula
  (simplified, negation normal form) and alphabet, with hit/miss
  counters, so a fleet of sessions over the same policy compiles it
  exactly once.  Horizons are runtime parameters of sessions, never
  baked into tables, so one cache line serves every horizon.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from types import MappingProxyType
from collections.abc import Iterable
from dataclasses import dataclass

from repro.analysis.decompose import decompose
from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.subset import SubsetTable, good_edge_table
from repro.ltl.monitoring import Verdict3
from repro.ltl.simplify import simplify
from repro.ltl.syntax import Formula, Not, nnf_over_alphabet
from repro.obs.metrics import REGISTRY
from repro.obs.profile import PhaseTimer

from .verdicts import MonitorOutcome

#: Per-phase wall time of the compile pipeline (``decompose`` for the
#: two conjunct factorizations, ``determinize`` for the two safety
#: subset tables, ``bound_tracker`` and ``product`` on top).
_PHASES = PhaseTimer("repro.rv.compile")
#: Global (cross-cache) hit/miss tallies; per-cache counts stay on the
#: :class:`CompileCache` instance for :meth:`CompileCache.info`.
_CACHE_HITS = REGISTRY.counter(
    "repro_rv_compile_cache_hits_total", "compile-cache hits across all caches"
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_rv_compile_cache_misses_total", "compile-cache misses across all caches"
)
_TABLES_COMPILED = REGISTRY.counter(
    "repro_rv_tables_compiled_total", "DecomposedMonitor.compile() runs"
)
_TABLE_STATES = REGISTRY.histogram(
    "repro_rv_table_states_count", "product-table states per compiled monitor"
)


class BoundTracker:
    """The liveness conjunct as a deterministic *good-event* tracker.

    The determinized live-restricted subset automaton of
    ``B_L = A_φ ∪ ¬cl(A_φ)``, with a boolean per *edge*:
    ``good[q][i]`` is true when taking symbol ``i`` out of subset-state
    ``q`` **validates** an accepting visit — some still-viable run of
    the liveness conjunct sits on an accepting state at ``q`` and
    survives reading the symbol.  The edge (not state) formulation
    matters because LTL translations are guess-style: an accepting
    *promise* state ("the good event happens next") is enterable on
    almost every prefix, so subset ∩ accepting is nearly always
    non-empty; a promise only becomes progress one step later, when a
    run through it survives.  For ``GF a`` the good edges are exactly
    the ``a``-edges; for ``F b`` the first good edge is the ``b`` that
    discharges the eventuality (and every edge after it).

    A session's *wait* is the number of events since it last took a
    good edge; finitary liveness in the Chatterjee–Fijalkow sense is
    "every wait ≤ horizon", and because that bound is a safety property
    of the prefix, one exceeded wait falsifies it forever (the
    ``LIVENESS_BOUND_EXCEEDED`` latch).

    ``B_L`` is dense (every prefix is extendable into it), so the
    tracker has no reachable dead state — it never falsifies anything
    itself; falsification is the safety conjunct's job.
    """

    __slots__ = ("symbols", "symbol_index", "initial", "next_state", "good")

    def __init__(self, symbols, symbol_index, initial, next_state, good):
        self.symbols = symbols
        self.symbol_index = symbol_index
        self.initial = initial
        self.next_state = next_state
        self.good = good

    @classmethod
    def from_automaton(cls, liveness: BuchiAutomaton) -> "BoundTracker":
        """Lower the liveness conjunct onto dense tables + edge flags
        (:func:`repro.buchi.subset.good_edge_table`)."""
        table, good = good_edge_table(liveness)
        return cls(table.symbols, table.symbol_index, table.initial,
                   table.next_state, good)

    def step(self, state: int, symbol) -> int:
        return self.next_state[state][self.symbol_index[symbol]]

    def good_edge(self, state: int, symbol) -> bool:
        return self.good[state][self.symbol_index[symbol]]


_VERDICT_OF = MappingProxyType({
    (True, True): Verdict3.UNKNOWN,
    (True, False): Verdict3.TRUE,
    (False, True): Verdict3.FALSE,
    (False, False): Verdict3.FALSE,  # unreachable: both runs cannot die
})


class MonitorTable:
    """A compiled three-valued monitor: the product of two subset tables
    with a verdict per state.

    ``verdicts[q]`` is the :class:`Verdict3` after reading any prefix
    that reaches ``q``; states with a definite verdict are absorbing.
    Stepping is two list indexings — no sets, no allocation.

    Since PR 10 the subset tables are built from the *safety closures*
    ``cl(A_φ)`` / ``cl(A_¬φ)`` that :func:`repro.analysis.decompose`
    returns, not from ``A_φ`` / ``A_¬φ`` directly.  The verdicts are
    provably unchanged: a prefix has an extension in ``cl(L)`` iff it
    has one in ``L`` (closure adds exactly the limits of extendable
    prefixes), so the alive-flags — and hence every verdict — coincide
    with the direct ``translate() → table`` construction.
    """

    __slots__ = ("formula", "alphabet", "symbols", "symbol_index", "initial",
                 "next_state", "verdicts")

    def __init__(self, formula, alphabet, symbols, symbol_index, initial,
                 next_state, verdicts):
        self.formula = formula
        self.alphabet = alphabet
        self.symbols = symbols
        self.symbol_index = symbol_index
        self.initial = initial
        self.next_state = next_state
        self.verdicts = verdicts

    @classmethod
    def _product(cls, formula, alphabet, pos: SubsetTable, neg: SubsetTable,
                 **extra) -> "MonitorTable":
        symbols = pos.symbols
        symbol_index = pos.symbol_index
        start = (pos.initial, neg.initial)
        index: dict[tuple[int, int], int] = {start: 0}
        states: list[tuple[int, int]] = [start]
        next_state: list[list[int]] = []
        verdicts: list[Verdict3] = []
        i = 0
        while i < len(states):
            p, n = states[i]
            verdict = _VERDICT_OF[pos.alive[p], neg.alive[n]]
            verdicts.append(verdict)
            if verdict is not Verdict3.UNKNOWN:
                # definite verdicts are final — absorb.
                next_state.append([i] * len(symbols))
                i += 1
                continue
            row = []
            for k in range(len(symbols)):
                target = (pos.next_state[p][k], neg.next_state[n][k])
                if target not in index:
                    index[target] = len(states)
                    states.append(target)
                row.append(index[target])
            next_state.append(row)
            i += 1
        return cls(formula, alphabet, symbols, symbol_index, 0,
                   next_state, tuple(verdicts), **extra)

    def __len__(self) -> int:
        return len(self.next_state)

    def step(self, state: int, symbol) -> int:
        try:
            index = self.symbol_index[symbol]
        except (KeyError, TypeError):  # unhashable: outside any frozenset
            raise outside_alphabet(symbol) from None
        return self.next_state[state][index]

    def run(self, events: Iterable) -> Verdict3:
        """One-shot trace evaluation (the table-driven twin of
        :func:`repro.ltl.monitoring.monitor_verdict`)."""
        state = self.initial
        for e in events:
            state = self.step(state, e)
        return self.verdicts[state]


class DecomposedMonitor(MonitorTable):
    """What compilation emits since PR 10: the safety-conjunct product
    table plus the liveness conjunct's :class:`BoundTracker`.

    The table half is a :class:`MonitorTable` in every observable way
    (sessions, the enforcement monitor, and the PR-1 tests step it
    identically); ``tracker`` is the finitary-liveness add-on that
    sessions step in lock-step to maintain their wait counters.  The
    horizon is deliberately *not* part of the monitor: it is a runtime
    parameter of sessions and requests, so one cached monitor serves
    every horizon.
    """

    __slots__ = ("tracker",)

    def __init__(self, *args, tracker: BoundTracker):
        super().__init__(*args)
        self.tracker = tracker

    @classmethod
    def compile(cls, formula: Formula, alphabet: Iterable) -> "DecomposedMonitor":
        """The decomposition-driven pipeline (see the class docstring)."""
        alphabet = frozenset(alphabet)
        with _PHASES.phase("decompose"):
            positive = decompose(formula, alphabet=alphabet)
            negative = decompose(Not(formula), alphabet=alphabet)
        with _PHASES.phase("determinize"):
            pos = SubsetTable.from_automaton(positive.safety)
            neg = SubsetTable.from_automaton(negative.safety)
        with _PHASES.phase("bound_tracker"):
            tracker = BoundTracker.from_automaton(positive.liveness)
        with _PHASES.phase("product"):
            monitor = cls._product(formula, alphabet, pos, neg,
                                   tracker=tracker)
        _TABLES_COMPILED.add()
        _TABLE_STATES.record(len(monitor))
        return monitor

    def run_finitary(self, events: Iterable,
                     horizon: int | None = None) -> MonitorOutcome:
        """One-shot four-valued trace evaluation under a horizon — the
        request/reply form the service's ``Monitor`` verb computes.

        A fresh :class:`~repro.rv.session.TraceSession` advances over
        the whole trace, so this is the streaming path run once: a
        negative horizon or an event outside the alphabet (anywhere in
        the trace) raises ``ValueError``, and ``max_wait`` caps at
        ``horizon + 1`` once the bound is exceeded.
        """
        from .session import TraceSession  # session builds on this module

        session = TraceSession(None, self, horizon=horizon)
        session.advance(session.encode(events))
        return session.outcome()


def outside_alphabet(event) -> ValueError:
    """The one error for an event outside a monitor's alphabet."""
    return ValueError(f"event {event!r} outside the alphabet")


def canonical_key(formula: Formula, alphabet: Iterable):
    """The cache key: simplified negation-normal form over the alphabet.

    Syntactic variants (``F a`` written twice, double negations, absorbed
    conjuncts) collapse to one compiled monitor; semantics are preserved
    because :func:`~repro.ltl.simplify.simplify` and NNF are
    language-preserving rewrites, and verdicts depend only on languages.
    """
    alphabet = frozenset(alphabet)
    return nnf_over_alphabet(simplify(formula), alphabet), alphabet


@dataclass(frozen=True)
class CacheInfo:
    hits: int
    misses: int
    size: int
    maxsize: int


class CompileCache:
    """A thread-safe LRU of compiled monitors keyed by canonical formula.

    ``get`` compiles at most once per distinct (canonical formula,
    alphabet) pair while it stays resident; the counters let callers
    *prove* reuse (the acceptance test and stats layer read them).
    Entries are :class:`DecomposedMonitor` instances; horizons are
    session-side, so every horizon shares one entry.  Canonical keys are
    memoized per raw ``(formula, frozenset(alphabet))`` in an LRU of the
    same ``maxsize``: formulas hash by value, so a re-parsed policy hits.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._canonical = functools.lru_cache(maxsize)(canonical_key)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, formula: Formula, alphabet: Iterable) -> DecomposedMonitor:
        key = self._canonical(formula, frozenset(alphabet))
        with self._lock:
            table = self._entries.get(key)
            if table is not None:
                self._hits += 1
                self._entries.move_to_end(key)
            else:
                self._misses += 1
        if table is not None:
            # the counter takes its own lock; update it after releasing
            # ours so the two never nest (the RC011 discipline — this
            # mirrors the miss path below)
            _CACHE_HITS.add()
            return table
        _CACHE_MISSES.add()
        # compile outside the lock: a slow formula must not serialize the
        # whole fleet.  A racing duplicate compile is harmless (same table
        # semantics) and the counters still record one miss per caller.
        table = DecomposedMonitor.compile(key[0], key[1])
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = table
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return table

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
        self._canonical.cache_clear()


#: Process-wide default cache (module-level monitors, examples, tests).
DEFAULT_CACHE = CompileCache()


def compile_formula(
    formula: Formula, alphabet: Iterable, cache: CompileCache | None = None
) -> DecomposedMonitor:
    """Compile through a cache (the module default when none is given)."""
    return (cache or DEFAULT_CACHE).get(formula, alphabet)
