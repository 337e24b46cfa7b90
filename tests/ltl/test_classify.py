"""Tests for the LTL safety/liveness classifier — including the paper's
§2.3 table (Rem's examples), which is the TAB1 experiment's ground truth."""

import json
from pathlib import Path

import pytest

from repro.analysis import decompose
from repro.buchi import (
    are_equivalent,
    closure,
    complement_safety,
    intersection,
    intersection_is_empty,
    is_empty,
    safety_is_universal,
    universal_automaton,
)
from repro.ltl import (
    PropertyClass,
    classify,
    classify_rem_examples,
    parse,
    rem_examples,
    translate,
)
from repro.ltl.syntax import Not
from repro.omega import all_lassos

CLASSIFIED = [
    ("G a", "ab"), ("a W b", "ab"), ("G (a -> X b)", "ab"), ("F a", "ab"),
    ("GF a", "ab"), ("FG a", "ab"), ("G (a -> F b)", "ab"), ("a U b", "ab"),
    ("a & F b", "ab"), ("true", "ab"), ("false", "ab"), ("G (r -> F g)", "rg"),
    ("a U b", "abc"), ("a W b", "abc"),
]
FAMILY = [
    (row["formula"], "ab")
    for row in json.loads(
        (Path(__file__).parent / "data" / "family_automata.json").read_text()
    )["formulas"]
]


class TestRemTable:
    """Every row of the paper's §2.3 classification."""

    def test_all_rows_match_paper(self):
        for example, result in classify_rem_examples():
            assert result.kind == example.expected, example.identifier

    def test_p3_closure_is_p1(self):
        """'The closure of p3 is p1, so p3 is neither...'"""
        table = {ex.identifier: (ex, c) for ex, c in classify_rem_examples()}
        _, c3 = table["p3"]
        p1_automaton = translate(parse("a"), "ab")
        assert are_equivalent(c3.closure_automaton, p1_automaton)

    def test_p4_p5_closures_are_universal(self):
        table = {ex.identifier: (ex, c) for ex, c in classify_rem_examples()}
        univ = universal_automaton("ab")
        for pid in ("p4", "p5"):
            _, c = table[pid]
            assert are_equivalent(c.closure_automaton, univ), pid

    def test_examples_have_informal_text(self):
        for ex in rem_examples():
            assert ex.informal
            assert ex.identifier.startswith("p")


class TestClassifier:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("G a", PropertyClass.SAFETY),
            # over Σ = {a, b} every word either keeps a forever or has a
            # first b preceded by a's, so a W b = Σ^ω
            ("a W b", PropertyClass.BOTH),
            ("G (a -> X b)", PropertyClass.SAFETY),
            ("F a", PropertyClass.LIVENESS),
            ("GF a", PropertyClass.LIVENESS),
            ("FG a", PropertyClass.LIVENESS),
            ("G (a -> F b)", PropertyClass.LIVENESS),
            # over Σ = {a, b} every finite word extends to a model of
            # a U b (a leading b satisfies it outright), so it is LIVE —
            # the "neither" reading needs a third letter (tested below)
            ("a U b", PropertyClass.LIVENESS),
            ("a & F b", PropertyClass.NEITHER),
            ("true", PropertyClass.BOTH),
        ],
    )
    def test_classification(self, text, expected):
        assert classify(parse(text), "ab").kind == expected

    def test_classification_flags(self):
        c = classify(parse("true"), "ab")
        assert c.is_safety and c.is_liveness

    def test_response_property_is_liveness(self):
        """G(request -> F grant) — the canonical liveness spec."""
        c = classify(parse("G (r -> F g)"), "rg")
        assert c.kind == PropertyClass.LIVENESS

    def test_until_is_neither_over_three_letters(self):
        """Over Σ = {a, b, c} a prefix starting with c is a bad prefix, so
        a U b is no longer live; a^ω shows it is not safe either."""
        assert classify(parse("a U b"), "abc").kind == PropertyClass.NEITHER
        assert classify(parse("a W b"), "abc").kind == PropertyClass.SAFETY


class TestDenseDecisions:
    """classify() decides its two emptiness questions on dense cores;
    each answer must be the one the built automata give."""

    @pytest.mark.parametrize(
        "cases", [CLASSIFIED, FAMILY], ids=["classifier", "family"]
    )
    def test_helpers_agree_with_built_automata(self, cases):
        for text, alphabet in cases:
            f = parse(text)
            closed = closure(translate(f, alphabet))
            negated = translate(Not(f), alphabet)
            assert intersection_is_empty(closed, negated) == is_empty(
                intersection(closed, negated)
            ), text
            assert safety_is_universal(closed) == is_empty(
                complement_safety(closed)
            ), text

    def test_empty_closure_is_not_universal(self):
        closed = closure(translate(parse("false"), "ab"))
        assert is_empty(closed)
        assert not safety_is_universal(closed)

    def test_universality_needs_a_safety_automaton(self):
        with pytest.raises(ValueError):
            safety_is_universal(translate(parse("GF a"), "ab"))


class TestFormulaDecomposition:
    @pytest.mark.parametrize("text", ["a U b", "a & F !a", "GF a", "G a"])
    def test_decomposition_identity(self, text):
        d = decompose(parse(text), alphabet="ab")
        for w in all_lassos("ab", 2, 3):
            assert d.verify_on_word(w), (text, w)

    def test_decomposition_parts_typed(self):
        d = decompose(parse("a U b"), alphabet="ab")
        assert d.verify_parts()

    def test_until_decomposition_matches_hand_computation(self):
        """Over Σ = {a, b, c}: lcl(a U b) = a W b (stay in a's until b, or
        a's forever); over Σ = {a, b} the closure degenerates to Σ^ω."""
        d = decompose(parse("a U b"), alphabet="abc")
        weak = translate(parse("a W b"), "abc")
        assert are_equivalent(d.safety, weak)
        d2 = decompose(parse("a U b"), alphabet="ab")
        assert are_equivalent(d2.safety, universal_automaton("ab"))
