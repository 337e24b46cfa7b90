"""Tests for LTL syntax, sugar and negation normal form."""

import pytest

from repro.ltl import (
    FALSE,
    TRUE,
    And,
    F,
    G,
    Letter,
    Next,
    Not,
    Or,
    Release,
    Until,
    W,
    X,
    iff,
    implies,
    nnf_over_alphabet,
    sym,
)


class TestConstruction:
    def test_sym(self):
        assert sym("a").letters == frozenset({"a"})

    def test_letter_set(self):
        assert Letter("ab").letters == frozenset({"a", "b"})

    def test_operator_sugar(self):
        f = sym("a") & sym("b")
        assert isinstance(f, And)
        g = sym("a") | sym("b")
        assert isinstance(g, Or)
        n = ~sym("a")
        assert isinstance(n, Not)

    def test_derived_operators(self):
        assert F(sym("a")) == Until(TRUE, sym("a"))
        assert G(sym("a")) == Release(FALSE, sym("a"))
        assert X(sym("a")) == Next(sym("a"))
        w = W(sym("a"), sym("b"))
        assert isinstance(w, Release)

    def test_implies_iff(self):
        f = implies(sym("a"), sym("b"))
        assert isinstance(f, Or)
        g = iff(sym("a"), sym("b"))
        assert isinstance(g, And)

    def test_hashable_and_equal(self):
        assert sym("a") == sym("a")
        assert {F(sym("a")): 1}[F(sym("a"))] == 1

    def test_size_and_subformulas(self):
        f = And(sym("a"), Next(sym("b")))
        assert f.size() == 4
        assert sym("b") in f.subformulas()
        assert f in f.subformulas()

    def test_letters_mentioned(self):
        f = And(sym("a"), F(Letter("bc")))
        assert f.letters_mentioned() == frozenset("abc")

    def test_str_forms(self):
        assert str(TRUE) == "true"
        assert str(FALSE) == "false"
        assert "U" in str(Until(sym("a"), sym("b")))


class TestNNF:
    def test_negated_letter_becomes_complement(self):
        f = nnf_over_alphabet(Not(sym("a")), "ab")
        assert f == Letter("b")

    def test_double_negation(self):
        f = nnf_over_alphabet(Not(Not(sym("a"))), "ab")
        assert f == sym("a")

    def test_de_morgan(self):
        f = nnf_over_alphabet(Not(And(sym("a"), sym("b"))), "ab")
        assert isinstance(f, Or)

    def test_until_release_duality(self):
        f = nnf_over_alphabet(Not(Until(sym("a"), sym("b"))), "ab")
        assert isinstance(f, Release)
        g = nnf_over_alphabet(Not(Release(sym("a"), sym("b"))), "ab")
        assert isinstance(g, Until)

    def test_negated_constants(self):
        assert nnf_over_alphabet(Not(TRUE), "ab") == FALSE
        assert nnf_over_alphabet(Not(FALSE), "ab") == TRUE

    def test_next_commutes_with_negation(self):
        f = nnf_over_alphabet(Not(Next(sym("a"))), "ab")
        assert f == Next(Letter("b"))

    def test_foreign_atom_rejected(self):
        with pytest.raises(ValueError, match="outside the alphabet"):
            nnf_over_alphabet(sym("z"), "ab")

    def test_nnf_result_is_negation_free(self):
        f = Not(Until(Not(sym("a")), And(sym("b"), Not(Next(sym("a"))))))
        nnf = nnf_over_alphabet(f, "ab")
        assert not any(isinstance(g, Not) for g in nnf.subformulas())


class TestNNFSemanticsPreserved:
    def test_equivalence_on_lassos(self):
        from repro.ltl import satisfies
        from repro.omega import all_lassos

        formulas = [
            Not(And(sym("a"), F(Not(sym("a"))))),
            Not(G(F(sym("a")))),
            Not(Until(sym("a"), Next(sym("b")))),
            Not(Release(sym("b"), Or(sym("a"), sym("b")))),
        ]
        for f in formulas:
            nnf = nnf_over_alphabet(f, "ab")
            for w in all_lassos("ab", 2, 2):
                assert satisfies(w, f) == satisfies(w, nnf), (f, w)


class TestCanonicalKeyMemo:
    """``canonical_key()`` is memoized on the formula, outside ``==``,
    ``hash`` and pickles."""

    FORMULAS = ["G a", "a U (b & X !a)", "GF a -> F b", "true", "false"]

    @pytest.mark.parametrize("text", FORMULAS)
    def test_memo_changes_no_pickle_reply_or_identity(self, text):
        import pickle

        from repro.ltl import parse
        from repro.service.wire import encode_value

        formula = parse(text)
        twin = parse(text)
        before = pickle.dumps(formula)
        encoded = encode_value(formula)
        digest = hash(formula)
        key = formula.canonical_key()
        assert "_canonical_key" in vars(formula)
        assert formula.canonical_key() is key
        assert key == twin._structural_key()
        assert pickle.dumps(formula) == before == pickle.dumps(twin)
        assert encode_value(formula) == encoded
        assert hash(formula) == digest == hash(twin)
        assert formula == twin and twin == formula
        copy = pickle.loads(pickle.dumps(formula))
        assert "_canonical_key" not in vars(copy)
        assert copy == formula and copy.canonical_key() == key

    def test_subformula_keys_are_their_own(self):
        formula = And(G(sym("a")), F(sym("b")))
        formula.canonical_key()
        assert "_canonical_key" not in vars(formula.left)
        assert formula.left.canonical_key() != formula.canonical_key()


class TestHashMemo:
    """``hash`` is memoized on the formula like its key, and the memo
    rides in no pickle: a string's hash differs across
    ``PYTHONHASHSEED``s, so a carried hash would be wrong elsewhere."""

    FORMULAS = TestCanonicalKeyMemo.FORMULAS + ["{a,b} U X {b}"]

    @pytest.mark.parametrize("text", FORMULAS)
    def test_memo_is_the_field_hash_and_stays_out_of_pickles(self, text):
        import pickle

        from repro.ltl import parse

        formula = parse(text)
        before = pickle.dumps(formula)
        digest = hash(formula)
        assert vars(formula)["_hash"] == digest
        assert hash(formula) == digest == hash(parse(text))
        assert pickle.dumps(formula) == before
        copy = pickle.loads(before)
        assert "_hash" not in vars(copy)
        assert copy == formula and hash(copy) == digest
        assert {formula: 1}[parse(text)] == 1

    def test_unequal_formulas_stay_unequal(self):
        left, right = Until(sym("a"), sym("b")), Release(sym("a"), sym("b"))
        hash(left), hash(right)
        assert left != right
        assert len({left, right, Until(sym("a"), sym("b"))}) == 2

    def test_a_pickled_formula_hashes_afresh_under_another_seed(self):
        import os
        import pickle
        import subprocess
        import sys

        import repro
        from repro.ltl import parse

        source = os.path.dirname(os.path.dirname(repro.__file__))
        text = "G ({a,b} -> F c)"
        formula = parse(text)
        hash(formula)
        probe = (
            "import pickle, sys\n"
            "from repro.ltl import parse\n"
            "copy = pickle.loads(sys.stdin.buffer.read())\n"
            f"assert hash(copy) == hash(parse({text!r}))\n"
            f"assert {{copy: 1}}[parse({text!r})] == 1\n"
        )
        for seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-c", probe], input=pickle.dumps(formula),
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": source},
                check=True, timeout=60,
            )

    def test_compile_cache_keys_carry_memoized_hashes(self):
        from repro.rv.compile import CompileCache

        cache = CompileCache()
        policy = G(Or(Not(sym("a")), F(sym("b"))))
        cache.get(policy, "ab")
        assert "_hash" in vars(policy)
        # the memoized canonical form is hashed once, not per hit
        ((canonical, _alphabet),) = cache._entries
        assert "_hash" in vars(canonical)
        assert cache.get(policy, "ab") is cache.get(policy, "ab")
