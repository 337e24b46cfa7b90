"""Every input the program receives, generated from the run's seed.

The LTL formula family is copied from the sharded-tier pytest benchmark
(eight shapes, X-nesting depths, five literals) rather than imported, so
edits there cannot change what this benchmark measures.  Random Büchi
automata are drawn here too, in the Tabakov–Vardi style of
``repro.buchi.random_automata`` but with this module's own draw order.
The same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.analysis import decompose
from repro.analysis.classify import classify_formula
from repro.buchi.automaton import BuchiAutomaton
from repro.ltl import parse
from repro.service import CheckRequest, ClassifyRequest, DecomposeRequest

ALPHABET = frozenset({"a", "b"})
LITERALS = ("a", "b", "(a & b)", "(a | b)", "!a")

#: The check() slice of the working set: simple formulas, because a
#: check complements the subject and deep X-nesting blows that up.
CHECK_FORMULAS = (
    "G a", "F b", "a U b", "G F a", "F G b", "a W b",
    "G (a -> b)", "F (a & b)", "G (a | b)", "a U (a & b)",
    "b U a", "F !a", "G !b", "G F (a | b)", "F G (a & b)",
    "(a -> b) U b",
)

#: rv-stream: 256 sessions over these 8 policies, each with the event its
#: traffic usually carries; 256-event batches.
POLICIES = {
    "G a": "a", "F b": "a", "G (a -> X b)": "b", "G F a": "a",
    "a & F !a": "a", "F G b": "b", "a U b": "a", "G (b -> F a)": "b",
}
SESSIONS = 256
WINDOW = 32          # sessions fed by one batch
BATCH_EVENTS = 256   # WINDOW sessions x 8 events
HORIZON = 6
#: One event in 2**DEVIATION_BITS is the other symbol than the usual one.
DEVIATION_BITS = 5


def formula_text(shape: int, nesting: int, variant: int, offset: int = 0,
                 literals=LITERALS) -> str:
    """One formula of the family: ``shape`` picks the temporal pattern,
    ``nesting`` the X-depth, ``variant`` and ``offset`` the literal pair."""
    nxt = "X " * nesting
    p = literals[variant]
    q = literals[(variant + 1 + shape + offset) % len(literals)]
    return (
        f"G ({p} -> {nxt}{q})",
        f"F ({nxt}({p} & {q}))",
        f"({p} U {nxt}{q})",
        f"G F ({p} & {nxt}{q})",
        f"({p} W {nxt}{q})",
        f"F G ({p} | {nxt}{q})",
        f"G ({p} | {nxt}{q})",
        f"({nxt}{p} U {q})",
    )[shape]


_REQUESTS = {
    "decompose": DecomposeRequest,
    "classify": ClassifyRequest,
    "check": CheckRequest,
}


@dataclass(frozen=True)
class Spec:
    """One request as plain data: a verb plus either an LTL formula's
    text or a Büchi automaton's structure ``(n, initial, accepting,
    transitions)`` over int states and the symbols ``a``/``b``.

    :meth:`subject` builds a fresh object on every call, so two calls
    never share a per-instance memo such as ``to_dense()``."""

    verb: str
    formula: str | None = None
    buchi: tuple | None = None

    @property
    def alphabet(self):
        return ALPHABET if self.formula is not None else None

    def subject(self):
        if self.formula is not None:
            return parse(self.formula)
        n, initial, accepting, transitions = self.buchi
        return BuchiAutomaton.build(
            alphabet=ALPHABET,
            states=range(n),
            initial=initial,
            transitions={(q, a): targets for q, a, targets in transitions},
            accepting=accepting,
            name="R",
        )

    def request(self, subject=None):
        """The service request for this spec (fresh subject by default)."""
        if subject is None:
            subject = self.subject()
        return _REQUESTS[self.verb](subject=subject, alphabet=self.alphabet)

    def call(self, client, subject, timeout: float):
        """The one ``Client`` verb call this spec stands for."""
        verb = getattr(client, self.verb)
        return verb(subject, alphabet=self.alphabet, timeout=timeout)


def reference(spec: Spec):
    """The answer by direct library calls on a fresh subject, bypassing
    the service: a class name for classify, a bool for check, and the
    canonical keys of the two parts for decompose."""
    subject = spec.subject()
    if spec.verb == "classify":  # only formulas are ever classified
        return classify_formula(subject, ALPHABET).name
    decomposition = decompose(subject, alphabet=spec.alphabet)
    if spec.verb == "check":
        return decomposition.verify()
    return parts_key(decomposition)


def parts_key(decomposition) -> tuple[str, str]:
    """Renaming-invariant identity of a decomposition's two parts."""
    return (decomposition.safety.canonical_key(),
            decomposition.liveness.canonical_key())


def hot_working_set(seed) -> list[Spec]:
    """The 160-request working set: 120 decomposes over X-depths 2–4,
    24 classifies at depth 1, 16 simple checks.  The seed shuffles the
    literal table, may swap ``a``/``b`` in the checks, and orders the
    requests."""
    rng = random.Random(f"hot:{seed}")
    literals = list(LITERALS)
    rng.shuffle(literals)
    swap = str.maketrans("ab", "ba") if rng.random() < 0.5 else None
    specs = [
        Spec("decompose", formula_text(shape, nesting, variant,
                                       literals=literals))
        for shape in range(8)
        for nesting in range(2, 5)
        for variant in range(5)
    ]
    specs += [
        Spec("classify", formula_text(shape, 1, variant, literals=literals))
        for shape in range(8)
        for variant in range(3)
    ]
    specs += [
        Spec("check", text.translate(swap) if swap else text)
        for text in CHECK_FORMULAS
    ]
    rng.shuffle(specs)
    return specs


def _random_buchi(rng: random.Random, n: int) -> tuple:
    """``round(1.2 n)`` random transitions per symbol, each state
    accepting with probability 0.3 (at least one), initial state 0."""
    targets: dict = {}
    for symbol in ("a", "b"):
        for _ in range(max(1, round(1.2 * n))):
            targets.setdefault((rng.randrange(n), symbol), set()).add(
                rng.randrange(n))
    accepting = tuple(q for q in range(n) if rng.random() < 0.3)
    if not accepting:
        accepting = (rng.randrange(n),)
    transitions = tuple(
        (q, symbol, tuple(sorted(rs)))
        for (q, symbol), rs in sorted(targets.items())
    )
    return (n, 0, accepting, transitions)


def _renamed(rng: random.Random, buchi: tuple) -> tuple:
    """An isomorphic copy under a random permutation of the states."""
    n, initial, accepting, transitions = buchi
    perm = list(range(n))
    rng.shuffle(perm)
    return (
        n,
        perm[initial],
        tuple(sorted(perm[q] for q in accepting)),
        tuple(sorted(
            (perm[q], symbol, tuple(sorted(perm[r] for r in rs)))
            for q, symbol, rs in transitions
        )),
    )


class ColdStream:
    """The cold-mixed request source.

    Three quarters of the requests decompose a random Büchi automaton of
    6–20 states; one in four of those is a state-renamed copy of one sent
    32–256 requests earlier, so its canonical key is still cached.  The
    other quarter classifies a formula of the 800-formula family, cycled
    in a seeded order, so a formula recurs only every ~3200 requests —
    long after the 512-line cache has evicted it."""

    FAMILY = tuple(
        formula_text(shape, nesting, variant, offset)
        for shape in range(8)
        for nesting in range(5)
        for variant in range(5)
        for offset in range(4)
    )

    def __init__(self, seed):
        self._rng = random.Random(f"cold:{seed}")
        self._formulas = list(self.FAMILY)
        self._rng.shuffle(self._formulas)
        self._next_formula = 0
        self._recent: deque = deque(maxlen=256)
        self.sent = 0

    def take(self, count: int) -> list[Spec]:
        rng = self._rng
        out = []
        for _ in range(count):
            index = self.sent
            self.sent += 1
            if rng.random() < 0.25:
                text = self._formulas[self._next_formula % len(self._formulas)]
                self._next_formula += 1
                out.append(Spec("classify", text))
                continue
            buchi = None
            if rng.random() < 0.25:
                earlier = [spec.buchi for sent, spec in self._recent
                           if 32 <= index - sent <= 256]
                if earlier:
                    buchi = _renamed(rng, rng.choice(earlier))
            if buchi is None:
                buchi = _random_buchi(rng, rng.randint(6, 20))
            spec = Spec("decompose", buchi=buchi)
            self._recent.append((index, spec))
            out.append(spec)
        return out


class RvStream:
    """The rv-stream event source.

    Session slot ``s`` monitors ``policy_of[s]`` (each window of 32 slots
    holds every policy four times).  Batch ``k`` feeds 8 events to each
    slot of window ``k mod 8``, interleaved.  Each event is the slot's
    usual symbol (:data:`POLICIES`) unless the batch's deviation mask —
    the AND of :data:`DEVIATION_BITS` random 256-bit words — has its bit
    set, so one event in 32 is the other symbol.  A session thus lives
    for tens to thousands of events before its verdict is final, as a
    monitor of mostly well-behaved traffic would.

    Batches come with their index; :meth:`masks` replays the masks of the
    first ``n`` batches from the seed, so :meth:`trace` can rebuild any
    slot's events without the run keeping them."""

    def __init__(self, seed):
        self.seed = seed
        order = list(POLICIES)
        random.Random(f"rv-policies:{seed}").shuffle(order)
        self.policy_of = tuple(order[s % len(order)] for s in range(SESSIONS))
        self.usual_of = tuple(POLICIES[policy] for policy in self.policy_of)
        self._masks = self._mask_source()
        self.generated = 0
        # (slot, event) pairs are built once: position p of a window-w
        # batch belongs to slot 32 w + p mod 32; index 0 is its usual event
        self._pairs = []
        for w in range(SESSIONS // WINDOW):
            pairs = []
            for p in range(BATCH_EVENTS):
                slot = w * WINDOW + p % WINDOW
                usual = self.usual_of[slot]
                pairs.append(((slot, usual), (slot, "ab"[usual == "a"])))
            self._pairs.append(pairs)

    def _mask_source(self):
        rng = random.Random(f"rv:{self.seed}")
        while True:
            mask = rng.getrandbits(BATCH_EVENTS)
            for _ in range(DEVIATION_BITS - 1):
                mask &= rng.getrandbits(BATCH_EVENTS)
            yield mask

    def take(self, count: int) -> list[tuple[int, list[tuple]]]:
        """The next ``count`` batches, each as ``(index, events)``."""
        batches = []
        for _ in range(count):
            index = self.generated
            self.generated += 1
            pairs = self._pairs[index % len(self._pairs)]
            mask = next(self._masks)
            batches.append((index, [pairs[p][(mask >> p) & 1]
                                    for p in range(BATCH_EVENTS)]))
        return batches

    def masks(self, count: int) -> list[int]:
        """The deviation masks of batches ``0 .. count - 1``."""
        source = self._mask_source()
        return [next(source) for _ in range(count)]

    def trace(self, slot: int, masks, first: int, last: int, skipped=()):
        """The events slot ``slot`` was sent by batches ``first`` to
        ``last`` inclusive, in order, leaving out the ``skipped`` batch
        indices (batches the engine refused)."""
        window, lane = divmod(slot, WINDOW)
        windows = SESSIONS // WINDOW
        usual = self.usual_of[slot] == "b"
        start = first + (window - first) % windows
        for index in range(start, last + 1, windows):
            if index in skipped:
                continue
            mask = masks[index] >> lane
            for step in range(BATCH_EVENTS // WINDOW):
                yield "ab"[usual ^ ((mask >> (WINDOW * step)) & 1)]
