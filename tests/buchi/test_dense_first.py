"""Kernel-built automata against a hashable-state reference.

``closure``, ``complement_safety`` and ``union`` build their results
from the dense forms of their inputs, through
``BuchiAutomaton._from_kernel``, with the transition dict left to be
built on first read.  The reference functions below are the earlier
dict-building implementations: they name every state, build every
transition dict eagerly and go through the validating constructor, so
``to_dense()`` re-derives each result's numbering from its fields.
Each kernel-built result must be indistinguishable from the reference:
equal both ways, equal hash, same name, same transition items in the
same order, a seeded dense form equal to the one a pickle copy rebuilds,
and a pickle no larger.

The second half pins the lazy mapping itself and the validation
boundary.
"""

import pickle
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import BuchiAutomaton, random_automaton
from repro.buchi.automaton import AutomatonError, _LazyTransitions
from repro.buchi.closure import closure
from repro.buchi.complement import complement_safety
from repro.buchi.decomposition import BuchiDecomposition, _decompose
from repro.buchi.emptiness import empty_automaton, universal_automaton
from repro.buchi.operations import union

# -- the reference: dict-building, validated, re-interned ---------------------


def reference_closure(automaton: BuchiAutomaton) -> BuchiAutomaton:
    form = automaton.to_dense()
    keep = form.reachable() & form.live()
    if not keep & (1 << form.core.initial):
        return empty_automaton(automaton.alphabet, name=f"cl({automaton.name})")
    states = form.unintern_mask(keep)
    transitions: dict = {}
    for a, symbol in enumerate(form.symbols):
        row = form.core.succ[a]
        for q in range(form.core.n_states):
            targets = row[q] & keep if (keep >> q) & 1 else 0
            if targets:
                transitions[form.states[q], symbol] = form.unintern_mask(targets)
    return BuchiAutomaton(
        alphabet=automaton.alphabet,
        states=states,
        initial=automaton.initial,
        transitions=transitions,
        accepting=states,
        name=automaton.name,
    )


def reference_complement_safety(automaton: BuchiAutomaton) -> BuchiAutomaton:
    if automaton.accepting != automaton.states:
        from repro.buchi.emptiness import is_empty

        if is_empty(automaton):
            return universal_automaton(automaton.alphabet, name=f"¬{automaton.name}")
        raise ValueError("not a safety automaton")
    symbols = sorted(automaton.alphabet, key=repr)
    initial = frozenset({automaton.initial})
    order = [initial]
    seen = {initial}
    transitions: dict = {}
    for subset in order:
        for a in symbols:
            target = automaton.post(subset, a)
            if target not in seen:
                seen.add(target)
                order.append(target)
            transitions[subset, a] = target
    if frozenset() not in seen:
        order.append(frozenset())
        for a in symbols:
            transitions[frozenset(), a] = frozenset()
    return BuchiAutomaton(
        alphabet=automaton.alphabet,
        states=frozenset(order),
        initial=initial,
        transitions={
            (subset, a): frozenset({target})
            for subset in order
            for a in symbols
            for target in [transitions[subset, a]]
        },
        accepting=frozenset({frozenset()}),
        name=f"¬{automaton.name}",
    )


def reference_union(a: BuchiAutomaton, b: BuchiAutomaton, name=None):
    form_a, form_b = a.to_dense(), b.to_dense()
    names = (
        [("∪", None)]
        + [("l", q) for q in form_a.states]
        + [("r", q) for q in form_b.states]
    )
    transitions: dict = {}
    for tag, m in (("l", a), ("r", b)):
        for (q, sym), targets in m.transitions.items():
            transitions[(tag, q), sym] = frozenset((tag, r) for r in targets)
    for sym in a.alphabet:
        merged = [
            (tag, r)
            for tag, m in (("l", a), ("r", b))
            for r in m.transitions.get((m.initial, sym), ())
        ]
        if merged:
            transitions[("∪", None), sym] = frozenset(merged)
    return BuchiAutomaton(
        alphabet=a.alphabet,
        states=frozenset(names),
        initial=("∪", None),
        transitions=transitions,
        accepting=frozenset(
            [("l", q) for q in a.accepting] + [("r", q) for q in b.accepting]
        ),
        name=name or f"({a.name} ∪ {b.name})",
    )


def reference_decompose(automaton: BuchiAutomaton) -> BuchiDecomposition:
    safety = reference_closure(automaton)
    liveness = reference_union(
        automaton, reference_complement_safety(safety),
        name=f"{automaton.name}_L",
    )
    return BuchiDecomposition(
        original=automaton,
        safety=BuchiAutomaton(
            alphabet=safety.alphabet,
            states=safety.states,
            initial=safety.initial,
            transitions=dict(safety.transitions),
            accepting=safety.accepting,
            name=f"{automaton.name}_S",
        ),
        liveness=liveness,
    )


# -- subjects ---------------------------------------------------------------

NAMINGS = {
    "int": lambda q: q,
    "str": lambda q: f"q{q}",
    # "q10" sorts before "q2" by repr, unlike the ints
    "tuple": lambda q: ("t", q % 3, q),
    "frozenset": lambda q: frozenset({q, -1 - q}),
    "mixed": lambda q: (q, f"q{q}", ("t", q), frozenset({q, 100}))[q % 4],
}


def subject(seed: int) -> BuchiAutomaton:
    """A random automaton under one of :data:`NAMINGS`, over two or three
    symbols, with a few explicit empty-target entries."""
    rng = random.Random(seed)
    alphabet = rng.choice(["ab", "abc", ("x", ("y",), 3)])
    dense = random_automaton(
        rng,
        n_states=rng.randint(1, 9),
        alphabet=alphabet,
        transition_density=rng.choice([0.8, 1.2, 2.0, 3.0]),
        acceptance_density=rng.choice([0.1, 0.3, 0.7]),
    )
    rename = NAMINGS[rng.choice(sorted(NAMINGS))]
    transitions = {
        (rename(q), a): {rename(r) for r in targets}
        for (q, a), targets in dense.transitions.items()
    }
    for q in dense.states:
        for a in dense.alphabet:
            if (q, a) not in dense.transitions and rng.random() < 0.3:
                transitions[rename(q), a] = set()
    return BuchiAutomaton.build(
        alphabet=dense.alphabet,
        states=[rename(q) for q in dense.states],
        initial=rename(dense.initial),
        transitions=transitions,
        accepting=[rename(q) for q in dense.accepting],
        name=f"S{seed}",
    )


HAND = {
    # no accepting cycle: the closure is the empty automaton
    "empty-closure": BuchiAutomaton.build(
        "ab", ["p", "q"], "p", {("p", "a"): ["q"], ("q", "b"): []}, ["q"],
    ),
    # GF a: the closure is universal, its complement empty
    "universal-closure": BuchiAutomaton.build(
        "ab", [0, 1], 0,
        {(0, "a"): [1], (0, "b"): [0], (1, "a"): [1], (1, "b"): [0]}, [1],
    ),
    # three symbols, ties among string and tuple targets, an explicit
    # empty entry, and an unreachable state
    "three-symbols": BuchiAutomaton.build(
        "abc", ["s", ("t", 1), "u10", "u2", "dead"], "s",
        {
            ("s", "a"): ["u10", "u2", ("t", 1)],
            ("s", "c"): [],
            ("u2", "b"): ["u2", "s"],
            ("u10", "a"): ["u10"],
            (("t", 1), "c"): [("t", 1), "u10"],
            ("dead", "a"): ["s"],
        },
        ["u10", ("t", 1)],
    ),
    # frozenset names, as the complement produces them
    "frozenset-names": BuchiAutomaton.build(
        "ab",
        [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({"x"})],
        frozenset({1}),
        {
            (frozenset({1}), "a"): [frozenset({1, 2}), frozenset({"x"})],
            (frozenset({1, 2}), "b"): [frozenset({1}), frozenset()],
            (frozenset({"x"}), "a"): [frozenset({"x"})],
            (frozenset(), "b"): [frozenset()],
        },
        [frozenset({"x"}), frozenset()],
    ),
}


def assert_matches(built: BuchiAutomaton, reference: BuchiAutomaton):
    assert built == reference and reference == built
    assert hash(built) == hash(reference)
    assert built.name == reference.name
    assert list(built.transitions.items()) == list(reference.transitions.items())
    form = built.to_dense()
    copy = pickle.loads(pickle.dumps(built))
    rebuilt = copy.to_dense()
    assert rebuilt.core == form.core
    assert rebuilt.states == form.states
    assert rebuilt.symbols == form.symbols
    assert len(pickle.dumps(built)) <= len(pickle.dumps(reference))


def check_against_reference(automaton: BuchiAutomaton):
    safety = closure(automaton)
    assert_matches(safety, reference_closure(automaton))
    negated = complement_safety(safety)
    assert_matches(negated, reference_complement_safety(safety))
    assert_matches(
        complement_safety(reference_closure(automaton)),
        reference_complement_safety(safety),
    )
    assert_matches(union(automaton, negated), reference_union(automaton, negated))
    assert_matches(union(negated, automaton), reference_union(negated, automaton))
    parts = _decompose(automaton)
    expected = reference_decompose(automaton)
    assert_matches(parts.safety, expected.safety)
    assert_matches(parts.liveness, expected.liveness)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_reference_on_random_automata(seed):
    check_against_reference(subject(seed))


@pytest.mark.parametrize("label", sorted(HAND))
def test_matches_reference_on_hand_cases(label):
    check_against_reference(HAND[label])


def test_hand_cases_cover_both_closure_extremes():
    assert closure(HAND["empty-closure"]).states == {"dead"}
    universal = complement_safety(closure(HAND["universal-closure"]))
    assert not universal.accepting & universal.reachable_states()


def test_union_of_an_automaton_with_itself():
    automaton = HAND["three-symbols"]
    assert_matches(union(automaton, automaton),
                   reference_union(automaton, automaton))


# -- the lazy mapping and the validation boundary -----------------------------


def kernel_built(seed: int = 3) -> BuchiAutomaton:
    return _decompose(subject(seed)).liveness


def test_view_and_dict_compare_equal_both_ways():
    built = kernel_built()
    plain = dict(built.transitions)
    assert built.transitions == plain
    assert plain == built.transitions
    assert not (plain != built.transitions)
    assert built.transitions != {**plain, ("x", "a"): frozenset()}


def test_view_backed_and_dict_built_twins_are_interchangeable():
    built = kernel_built()
    twin = BuchiAutomaton(
        alphabet=built.alphabet,
        states=built.states,
        initial=built.initial,
        transitions=dict(built.transitions),
        accepting=built.accepting,
        name=built.name,
    )
    assert type(twin.transitions) is dict
    assert hash(twin) == hash(built)
    assert {built, twin} == {twin}
    assert twin in {built} and built in {twin}


@pytest.mark.parametrize("seed", range(6))
def test_pickle_bytes_ignore_the_first_read(seed):
    """Two decompositions of one subject: one pickled with its views
    never read, one pickled after reading them — the same bytes."""
    unread = _decompose(subject(seed))
    read = _decompose(subject(seed))
    for part in ("safety", "liveness"):
        automaton = getattr(read, part)
        if isinstance(automaton.transitions, _LazyTransitions):
            assert automaton.transitions._build is not None
            dict(automaton.transitions)
            assert automaton.transitions._build is None
        fresh = getattr(unread, part)
        assert pickle.dumps(fresh) == pickle.dumps(automaton)
        assert pickle.dumps(fresh) == pickle.dumps(automaton)
        assert type(pickle.loads(pickle.dumps(fresh)).transitions) is dict
    assert isinstance(read.liveness.transitions, _LazyTransitions)


def test_view_is_read_only():
    view = kernel_built().transitions
    assert not hasattr(view, "__setitem__")
    with pytest.raises(TypeError):
        view[("x", "a")] = frozenset()
    with pytest.raises(AttributeError):
        view.pop(next(iter(view)))


def test_threads_reading_first_see_one_content():
    for seed in range(20):
        automaton = kernel_built(seed)
        seen = []
        barrier = threading.Barrier(2)

        def read():
            barrier.wait()
            seen.append(list(automaton.transitions.items()))

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen[0] == seen[1]
        assert seen[0] == list(reference_decompose(
            subject(seed)).liveness.transitions.items())


def test_public_constructor_still_validates():
    with pytest.raises(AutomatonError):
        BuchiAutomaton.build("ab", [0], 0, {(0, "a"): [1]}, [])
    with pytest.raises(AutomatonError):
        BuchiAutomaton(
            alphabet=frozenset("ab"),
            states=frozenset({0}),
            initial=0,
            transitions={(0, "a"): frozenset({7})},
            accepting=frozenset(),
        )


# -- trim and the one-state automata ------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_trim_returns_a_dense_built_part_without_building_its_dict(seed):
    from repro.buchi.emptiness import trim

    safety = _decompose(subject(seed)).safety
    if safety.states == {"dead"}:
        return  # the empty closure: trim rebuilds it
    assert safety.transitions.dense and safety.transitions._build is not None
    assert trim(safety) is safety
    assert safety.transitions._build is not None


def test_trim_still_drops_explicit_empty_entries():
    from repro.buchi.emptiness import trim

    explicit = BuchiAutomaton.build("ab", [0], 0,
                                    {(0, "a"): [0], (0, "b"): []}, [0])
    trimmed = trim(explicit)
    assert trimmed is not explicit
    assert trimmed == BuchiAutomaton.build("ab", [0], 0, {(0, "a"): [0]}, [0])


def built_empty(alphabet, name="∅"):
    return BuchiAutomaton.build(alphabet=alphabet, states=["dead"],
                                initial="dead", transitions={},
                                accepting=[], name=name)


def built_universal(alphabet, name="Σ^ω"):
    return BuchiAutomaton.build(alphabet=alphabet, states=["⊤"], initial="⊤",
                                transitions={("⊤", a): ["⊤"] for a in alphabet},
                                accepting=["⊤"], name=name)


ALPHABETS = [frozenset("ab"), "ba", ["c", "a", "b"], {"q", "r"},
             frozenset({1, "x", (2, 3)}), frozenset(range(9))]


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=repr)
@pytest.mark.parametrize("made, built", [
    (empty_automaton, built_empty),
    (universal_automaton, built_universal),
])
def test_one_state_automata_match_the_build_spelling(made, built, alphabet):
    automaton = made(alphabet, name="n")
    reference = built(alphabet, name="n")
    assert automaton == reference and reference == automaton
    assert hash(automaton) == hash(reference)
    assert pickle.dumps(automaton) == pickle.dumps(reference)
    assert automaton.name == reference.name
    assert list(automaton.transitions.items()) == \
        list(reference.transitions.items())
    form, expected = automaton.to_dense(), reference.to_dense()
    assert (form.core, form.states, form.symbols) == \
        (expected.core, expected.states, expected.symbols)
    assert automaton.canonical_key() == reference.canonical_key()


def test_one_state_automata_reject_an_empty_alphabet():
    for made in (empty_automaton, universal_automaton):
        with pytest.raises(AutomatonError):
            made(())
