"""Keys decide isomorphism: equal keys exactly when a brute-force search
finds a renaming, renamed copies keep their key in every domain, token
look-alikes (``1``/``True``) stay apart, a key does not depend on the
hash seed, and twin states do not blow the individualization budget."""

import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import BuchiAutomaton
from repro.canonical import canonical_digraph_key
from repro.lattice.random_lattices import (
    random_boolean_sublattice,
    random_modular_complemented,
)
from repro.rabin import RabinTreeAutomaton
from repro.service import Client

SYMBOLS = ("a", "b")


def build(n, initial, accepting, edges, names=None, alphabet="ab"):
    """A Büchi automaton from plain data; ``names`` renames state ``q``
    to ``names[q]`` (identity when omitted)."""
    name = (lambda q: q) if names is None else names.__getitem__
    transitions: dict = {}
    for q, a, r in edges:
        transitions.setdefault((name(q), a), []).append(name(r))
    return BuchiAutomaton.build(
        alphabet=alphabet,
        states=[name(q) for q in range(n)],
        initial=name(initial),
        transitions=transitions,
        accepting=[name(q) for q in accepting],
    )


def isomorphic(x, y) -> bool:
    """Brute force: some permutation maps initial state, accepting set
    and labelled edges of ``x`` onto those of ``y``."""
    n, initial, accepting, edges = x
    if n != y[0]:
        return False
    for perm in permutations(range(n)):
        if (perm[initial] == y[1]
                and {perm[q] for q in accepting} == y[2]
                and {(perm[q], a, perm[r]) for q, a, r in edges} == y[3]):
            return True
    return False


def renamed(x, perm):
    n, initial, accepting, edges = x
    return (n, perm[initial], {perm[q] for q in accepting},
            {(perm[q], a, perm[r]) for q, a, r in edges})


@st.composite
def small_buchi(draw):
    """At most 5 states, initial state 0; some states are clones (same
    acceptance, same edges in and out), which makes them twins."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    pairs = [(q, a, r) for q in range(k) for a in SYMBOLS for r in range(k)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    accepting = set(draw(st.lists(st.integers(0, k - 1), max_size=k)))
    for clone in range(k, n):
        original = draw(st.integers(0, clone - 1))
        twin = {original: clone}.get
        edges |= {(twin(q, q), a, twin(r, r)) for q, a, r in edges
                  if original in (q, r)}
        if original in accepting:
            accepting.add(clone)
    return (n, 0, accepting, edges)


@st.composite
def buchi_pairs(draw):
    """Two small automata: independent, a renamed copy, or a renamed
    copy with one edge toggled (isomorphic only sometimes)."""
    x = draw(small_buchi())
    mode = draw(st.sampled_from(("independent", "renamed", "toggled")))
    if mode == "independent":
        return x, draw(small_buchi())
    n = x[0]
    rest = draw(st.permutations(range(1, n))) if n > 1 else []
    y = renamed(x, [0, *rest])
    if mode == "toggled":
        edge = (draw(st.integers(0, n - 1)), draw(st.sampled_from(SYMBOLS)),
                draw(st.integers(0, n - 1)))
        y = (y[0], y[1], y[2], y[3] ^ {edge})
    return x, y


#: Symbols of three token kinds; an alphabet is a prefix of 1-3 of them.
MIXED = ("a", 1, ("t", 2))


@st.composite
def sparse_buchi(draw):
    """At most 6 states over 1-3 symbols, any initial state, few edges:
    some states are unreachable, some isolated (no edge at all)."""
    symbols = MIXED[:draw(st.integers(1, 3))]
    n = draw(st.integers(1, 6))
    states = st.integers(0, n - 1)
    edges = set(draw(st.lists(
        st.tuples(states, st.sampled_from(symbols), states), max_size=2 * n)))
    accepting = set(draw(st.lists(states, max_size=n)))
    return symbols, (n, draw(states), accepting, edges)


@st.composite
def sparse_pairs(draw):
    """Two sparse automata: independent, or a renamed copy with one edge
    toggled or not."""
    symbols, x = draw(sparse_buchi())
    if draw(st.booleans()):
        other, y = draw(sparse_buchi())
        return (symbols, x), (other, y)
    n = x[0]
    y = renamed(x, draw(st.permutations(range(n))))
    if draw(st.booleans()):
        edge = (draw(st.integers(0, n - 1)), draw(st.sampled_from(symbols)),
                draw(st.integers(0, n - 1)))
        y = (y[0], y[1], y[2], y[3] ^ {edge})
    return (symbols, x), (symbols, y)


class TestKeysDecideIsomorphism:
    @settings(max_examples=300, deadline=None)
    @given(buchi_pairs())
    def test_equal_keys_iff_isomorphic(self, pair):
        x, y = pair
        same_key = build(*x).canonical_key() == build(*y).canonical_key()
        assert same_key == isomorphic(x, y)

    @settings(max_examples=300, deadline=None)
    @given(sparse_pairs())
    def test_mixed_alphabets_and_unreachable_states(self, pair):
        (symbols_x, x), (symbols_y, y) = pair
        same_key = (build(*x, alphabet=symbols_x).canonical_key()
                    == build(*y, alphabet=symbols_y).canonical_key())
        assert same_key == (symbols_x == symbols_y and isomorphic(x, y))


class TestRenamingKeepsKey:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_buchi(self, seed):
        # the cold-mixed subject shape: 6-20 states, round(1.2 n) random
        # transitions per symbol, each state accepting with p = 0.3
        rng = random.Random(seed)
        n = rng.randint(6, 20)
        edges = {(rng.randrange(n), a, rng.randrange(n))
                 for a in SYMBOLS for _ in range(round(1.2 * n))}
        accepting = {q for q in range(n) if rng.random() < 0.3}
        names = [f"s{i}" for i in range(n)]
        rng.shuffle(names)
        assert build(n, 0, accepting, edges, names).canonical_key() == \
            build(n, 0, accepting, edges).canonical_key()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rabin(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        k = rng.randint(1, 2)
        transitions = {
            (q, a): [tuple(rng.randrange(n) for _ in range(k))
                     for _ in range(rng.randint(1, 2))]
            for q in range(n) for a in SYMBOLS if rng.random() < 0.7
        }
        pairs = [({q for q in range(n) if rng.random() < 0.4},
                  {q for q in range(n) if rng.random() < 0.3})
                 for _ in range(rng.randint(0, 2))]
        names = [f"r{i}" for i in range(n)]
        rng.shuffle(names)

        def automaton(name):
            return RabinTreeAutomaton.build(
                alphabet="ab",
                states=[name(q) for q in range(n)],
                initial=name(0),
                transitions={
                    (name(q), a): [tuple(map(name, t)) for t in tuples]
                    for (q, a), tuples in transitions.items()
                },
                pairs=[(map(name, g), map(name, r)) for g, r in pairs],
                branching=k,
            )

        assert automaton(names.__getitem__).canonical_key() == \
            automaton(lambda q: q).canonical_key()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lattice(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            lattice = random_boolean_sublattice(
                rng, rng.randint(2, 4), rng.randint(1, 4))
        else:
            lattice = random_modular_complemented(rng, 2, 3)
        labels = list(range(len(lattice.elements)))
        rng.shuffle(labels)
        relabeled = lattice.relabel(dict(zip(lattice.elements, labels)))
        assert relabeled.canonical_key() == lattice.canonical_key()


class TestTokenCollisions:
    """``1``, ``1.0`` and ``True`` are equal as dict keys but are distinct
    colours and labels: a token memo keyed by value would merge them."""

    def test_int_and_bool_colours(self):
        assert canonical_digraph_key([0, 1], {0: 1, 1: True}, []) != \
            canonical_digraph_key([0, 1], {0: 1, 1: 1}, [])

    def test_int_and_bool_labels(self):
        colors = {0: "q", 1: "q"}
        assert canonical_digraph_key([0, 1], colors, [(1, 0, 1)]) != \
            canonical_digraph_key([0, 1], colors, [(True, 0, 1)])

    def test_labels_nesting_int_and_bool(self):
        colors = {0: "q", 1: "q"}
        assert canonical_digraph_key([0, 1], colors, [((1,), 0, 1)]) != \
            canonical_digraph_key([0, 1], colors, [((True,), 0, 1)])

    @staticmethod
    def loops(alphabet):
        # one accepting state with a self-loop on every symbol
        return BuchiAutomaton.build(
            alphabet, ["q"], "q", {("q", a): ["q"] for a in alphabet}, ["q"])

    def test_buchi_alphabets_int_and_bool(self):
        assert self.loops({1, "a"}).canonical_key() != \
            self.loops({True, "a"}).canonical_key()

    def test_buchi_alphabets_nesting_int_and_bool(self):
        assert self.loops({(1,)}).canonical_key() != \
            self.loops({(True,)}).canonical_key()


class TestHashSeeds:
    """Router and shard key in different processes, so a key must not
    depend on ``PYTHONHASHSEED`` (which orders sets of strings)."""

    def test_buchi_key_is_the_same_under_two_seeds(self):
        import os
        import subprocess
        import sys

        import repro

        source = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "from repro.buchi import BuchiAutomaton\n"
            "symbols = ['a', 'bb', 1, ('t', 2)]\n"
            "states = [f's{i}' for i in range(5)]\n"
            "print(BuchiAutomaton.build(\n"
            "    symbols, states, 's0',\n"
            "    {(q, a): [states[(i * j + 1) % 5], states[(i + j) % 5]]\n"
            "     for i, q in enumerate(states)\n"
            "     for j, a in enumerate(symbols) if (i + j) % 3},\n"
            "    ['s1', 's4']).canonical_key())\n"
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": source},
                check=True, timeout=60,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(keys) == 1 and next(iter(keys)).startswith("buchi:")


class TestTwins:
    """States that an automorphism can swap are branched on once: a
    subject whose tied class is all twins canonicalizes in one leaf per
    level instead of ``(n-1)!``."""

    @staticmethod
    def twelve_twins(names):
        # state 0 initial; states 1-11 unreachable, each with an a-loop
        return BuchiAutomaton.build(
            alphabet="ab",
            states=names,
            initial=names[0],
            transitions={(q, "a"): [q] for q in names[1:]},
            accepting=[names[0]],
        )

    def test_key_is_renaming_invariant(self):
        key = self.twelve_twins(list(range(12))).canonical_key()
        renamed_copy = self.twelve_twins([f"x{i}" for i in range(11, -1, -1)])
        assert renamed_copy.canonical_key() == key

    def test_twins_need_equal_in_edges_too(self):
        # Four sinks (coloured to be the first tied class, all with equal,
        # empty out-edges) hang off marked ring nodes: two off a 6-ring,
        # marked three apart, and one off each of two 3-rings.
        # Refinement cannot tell the rings apart, but no swap of two sinks
        # is an automorphism, so every sink must be branched on.
        rings = [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
                 (10, 11), (11, 12), (12, 10), (13, 14), (14, 15), (15, 13)]
        marked = [4, 7, 10, 13]
        colors = {v: "a" if v < 4 else "q" for v in range(16)}

        def key(sinks):
            hangs = list(zip(marked, sinks))
            edges = [("e", s, d) for s, d in rings + hangs]
            return canonical_digraph_key(range(16), colors, edges)

        assert key([0, 1, 2, 3]) == key([2, 3, 0, 1]) == key([1, 2, 3, 0])

    def test_subject_is_cacheable(self):
        subject = self.twelve_twins(list(range(12)))
        with Client.in_process() as client:
            assert client.decompose(subject).cached is False
            assert client.decompose(subject).cached is True
