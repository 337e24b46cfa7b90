"""Tests for LTL → Büchi translation: exhaustive agreement with the
semantic evaluator on bounded lassos, structural sanity, and stability:
the output is the same automaton in every process, and the same up to
isomorphism as a recorded translation of the formula family."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi import BuchiAutomaton
from repro.ltl import parse, satisfies, translate
from repro.ltl.syntax import (
    And,
    F,
    Formula,
    G,
    Letter,
    Next,
    Not,
    Or,
    Release,
    Until,
    sym,
)
from repro.omega import all_lassos

SMALL_LASSOS = list(all_lassos("ab", 2, 3))

#: Every 4th formula of the 800-formula family the cold benchmark
#: classifies (eight temporal shapes × X-depths 0–4 × literal pairs
#: over ``{a, b}``), each with the automata an earlier translator built
#: for it and for its negation, as ``(n, initial, accepting,
#: transitions)`` over states ``0..n-1``.  Automata rather than keys are
#: stored so the record survives a change to the key algorithm.
FAMILY = json.loads(
    (Path(__file__).parent / "data" / "family_automata.json").read_text()
)

FORMULAS = [
    "true",
    "false",
    "a",
    "!a",
    "X a",
    "XX b",
    "F a",
    "G a",
    "GF a",
    "FG a",
    "FG !a",
    "a U b",
    "a R b",
    "a W b",
    "a & F !a",
    "G (a -> X b)",
    "G (a -> F b)",
    "(F a) & (F b)",
    "(G a) | (G b)",
    "a U (b U a)",
    "!(a U b)",
    "GF a -> GF b",
]


class TestAgreementWithSemantics:
    @pytest.mark.parametrize("text", FORMULAS)
    def test_formula(self, text):
        f = parse(text)
        automaton = translate(f, "ab")
        for w in SMALL_LASSOS:
            assert automaton.accepts(w) == satisfies(w, f), (text, w)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_formulas(self, seed):
        rng = random.Random(seed)
        f = _random_formula(rng, depth=3)
        automaton = translate(f, "ab")
        for w in all_lassos("ab", 1, 2):
            assert automaton.accepts(w) == satisfies(w, f), (str(f), w)


class TestStructure:
    def test_translation_is_trim(self):
        from repro.buchi import live_states

        m = translate(parse("GF a"), "ab")
        assert m.reachable_states() == m.states
        assert live_states(m) == m.states

    def test_false_yields_empty(self):
        from repro.buchi import is_empty

        assert is_empty(translate(parse("false"), "ab"))

    def test_true_yields_universal(self):
        from repro.buchi import is_universal

        assert is_universal(translate(parse("true"), "ab"))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            translate(parse("a"), "")

    def test_three_letter_alphabet(self):
        f = parse("G {a,b}")
        m = translate(f, "abc")
        from repro.omega import LassoWord

        assert m.accepts(LassoWord((), "ab"))
        assert not m.accepts(LassoWord("c", "a"))

    def test_simplify_flag_preserves_language(self):
        f = parse("G (a -> F b)")
        fast = translate(f, "ab", simplify=True)
        slow = translate(f, "ab", simplify=False)
        for w in SMALL_LASSOS:
            assert fast.accepts(w) == slow.accepts(w)
        assert len(fast.states) <= len(slow.states)


def _golden(record) -> BuchiAutomaton:
    n, initial, accepting, transitions = record
    return BuchiAutomaton.build(
        alphabet=FAMILY["alphabet"],
        states=range(n),
        initial=initial,
        transitions={(q, a): targets for q, a, targets in transitions},
        accepting=accepting,
    )


class TestStability:
    def test_family_is_translated_up_to_isomorphism(self):
        """The int tableau builds, for every recorded formula and its
        negation, an automaton isomorphic to the recorded one."""
        differ = []
        for row in FAMILY["formulas"]:
            f = parse(row["formula"])
            for label, g in (("positive", f), ("negated", Not(f))):
                got = translate(g, FAMILY["alphabet"]).canonical_key()
                if got != _golden(row[label]).canonical_key():
                    differ.append((row["formula"], label))
        assert not differ

    def test_output_is_independent_of_hash_seed(self):
        """Two processes with different string-hash seeds number every
        state and transition alike: no set iteration order leaks into
        the automaton."""
        texts = [row["formula"] for row in FAMILY["formulas"][::5]]
        assert len(texts) == 40
        script = (
            "import json, sys\n"
            "from repro.ltl import parse, translate\n"
            "from repro.ltl.syntax import Not\n"
            "out = []\n"
            "for text in json.loads(sys.stdin.read()):\n"
            "    for f in (parse(text), Not(parse(text))):\n"
            "        m = translate(f, 'ab')\n"
            "        out.append([sorted(m.states), m.initial,\n"
            "                    sorted([q, a, sorted(ts)]\n"
            "                           for (q, a), ts in m.transitions.items()),\n"
            "                    sorted(m.accepting)])\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], input=json.dumps(texts),
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert len(outputs[0]) == 2 * len(texts)
        for text, first, second in zip(
            [t for t in texts for _ in (0, 1)], outputs[0], outputs[1]
        ):
            assert first == second, text


def _random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return sym(rng.choice("ab"))
    shape = rng.randrange(7)
    if shape == 0:
        return Not(_random_formula(rng, depth - 1))
    if shape == 1:
        return Next(_random_formula(rng, depth - 1))
    if shape == 2:
        return F(_random_formula(rng, depth - 1))
    if shape == 3:
        return G(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    if shape == 4:
        return And(left, right)
    if shape == 5:
        return Or(left, right)
    return Until(left, right)
