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
