"""Tests for bad-prefix analysis — Alpern–Schneider's "every violation
has a finite witness" made executable."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import (
    closure,
    good_prefix_dfa,
    is_bad_prefix,
    is_liveness,
    minimal_bad_prefixes,
    random_automaton,
    semantic_lcl_member,
    shortest_bad_prefix,
)
from repro.ltl import parse, translate
from repro.omega import LassoWord, all_lassos


def aut(text, alphabet="ab"):
    return translate(parse(text), alphabet)


class TestGoodPrefixDfa:
    def test_dfa_tracks_extendability(self):
        m = aut("G a")
        dfa = good_prefix_dfa(m)
        assert dfa.accepts_good("aaa")
        assert not dfa.accepts_good("aab")
        assert not dfa.accepts_good("aaba")  # dead is absorbing

    def test_dfa_is_total_and_deterministic(self):
        m = aut("G (a -> X b)")
        dfa = good_prefix_dfa(m)
        for row in dfa.next_state:
            assert len(row) == len(dfa.symbols)
            assert all(0 <= target < len(dfa) for target in row)

    def test_good_prefixes_match_semantic_lcl(self):
        """A lasso is in lcl(L) iff all its prefixes are good — the DFA
        and the semantic definition must agree."""
        m = aut("a & F !a")
        dfa = good_prefix_dfa(m)
        for w in all_lassos("ab", 2, 2):
            all_good = all(
                dfa.accepts_good(w.finite_prefix(n)) for n in range(6)
            )
            assert all_good == semantic_lcl_member(m, w)


class TestBadPrefixes:
    def test_is_bad_prefix(self):
        m = aut("G a")
        assert is_bad_prefix(m, "b")
        assert is_bad_prefix(m, "ab")
        assert not is_bad_prefix(m, "aaa")

    def test_shortest_bad_prefix(self):
        assert shortest_bad_prefix(aut("G a")) == ("b",)
        assert shortest_bad_prefix(aut("a")) == ("b",)

    def test_liveness_has_no_bad_prefix(self):
        for text in ("GF a", "FG a", "F a"):
            assert shortest_bad_prefix(aut(text)) is None
            assert is_liveness(aut(text))

    def test_empty_language_has_empty_bad_prefix(self):
        assert shortest_bad_prefix(aut("false")) == ()

    def test_minimal_bad_prefixes_of_Ga(self):
        got = sorted(minimal_bad_prefixes(aut("G a"), max_length=3))
        # minimal bad prefixes of G a: a^k b for k < 3
        assert got == [("a", "a", "b"), ("a", "b"), ("b",)]

    def test_minimal_bad_prefixes_are_minimal(self):
        m = aut("G (a -> X b)")
        for word in minimal_bad_prefixes(m, max_length=4):
            assert is_bad_prefix(m, word)
            assert not is_bad_prefix(m, word[:-1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bad_prefix_iff_outside_closure(self, seed):
        """x is a bad prefix of L iff x·Σ^ω misses lcl(L): check the DFA
        against the closure automaton on random instances."""
        rng = random.Random(seed)
        m = random_automaton(rng, rng.randint(1, 5))
        cl = closure(m)
        dfa = good_prefix_dfa(m)
        for k in range(4):
            word = tuple(rng.choice("ab") for _ in range(k))
            lasso = LassoWord(word, ("a",))
            lasso_b = LassoWord(word, ("b",))
            if dfa.accepts_good(word):
                continue  # good prefixes may or may not extend via a^ω
            assert not cl.accepts(lasso)
            assert not cl.accepts(lasso_b)
