"""Linear Temporal Logic — syntax.

Formulas are interpreted over infinite words on an explicit finite
alphabet Σ (the paper's setting: Rem's properties talk about *symbols*,
e.g. "the first symbol of t is a").  The atomic formula is therefore
:class:`Letter` — "the current symbol lies in this set" — from which
propositional atoms can be encoded when needed.

Operators: the Boolean connectives, X (next), F (eventually), G (always),
U (until), R (release) and W (weak until).  All formula classes are
immutable and hashable; :func:`negation_normal_form` pushes negations to
the atoms (needed by the tableau translation).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


class Formula:
    """Base class for LTL formulas (immutable)."""

    # -- combinator sugar --------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Or(Not(self), other)

    def until(self, other: "Formula") -> "Formula":
        return Until(self, other)

    def release(self, other: "Formula") -> "Formula":
        return Release(self, other)

    # -- structure ---------------------------------------------------------

    def subformulas(self) -> set["Formula"]:
        """All subformulas including self."""
        result = {self}
        for child in self.children():
            result |= child.subformulas()
        return result

    def children(self) -> tuple["Formula", ...]:
        return ()

    def letters_mentioned(self) -> frozenset:
        out: set = set()
        for f in self.subformulas():
            if isinstance(f, Letter):
                out |= set(f.letters)
        return frozenset(out)

    def size(self) -> int:
        """Node count."""
        return 1 + sum(c.size() for c in self.children())

    def canonical_key(self) -> str:
        """A structural cache key for memoization (DESIGN.md §8).

        Formulas have no states to rename, so the key is a digest of the
        AST itself; :class:`Letter` sets are serialized sorted so symbol
        insertion order never matters.  Memoized on the instance with
        ``object.__setattr__``: ``==`` and ``hash`` read the dataclass
        fields only, and :meth:`__getstate__` leaves the memo out of
        pickles.  Each formula class memoizes its ``hash`` the same way
        (:func:`_formula`)."""
        key = self.__dict__.get("_canonical_key")
        if key is None:
            key = self._structural_key()
            object.__setattr__(self, "_canonical_key", key)
        return key

    def _structural_key(self) -> str:
        from repro.canonical import digest, stable_token

        def token(f: "Formula") -> str:
            if isinstance(f, Letter):
                letters = ",".join(
                    sorted(stable_token(x) for x in f.letters)
                )
                return "L{" + letters + "}"
            name = type(f).__name__
            children = f.children()
            if not children:
                return name
            return name + "(" + ",".join(token(c) for c in children) + ")"

        return "ltl:" + digest(token(self))

    def __getstate__(self):
        """Pickle the fields only, never the key or hash memo, so a
        formula's pickle is a function of its value (a string's hash
        differs across ``PYTHONHASHSEED``s, so a carried hash would be
        wrong in another process)."""
        state = self.__dict__
        if not _MEMOS.isdisjoint(state):
            state = {name: value for name, value in state.items()
                     if name not in _MEMOS}
        return state or None


#: Per-instance memos kept out of ``==``, ``hash`` and pickles.
_MEMOS = frozenset({"_canonical_key", "_hash"})


def _formula(cls):
    """A formula class: a frozen dataclass whose field hash is memoized
    on the instance, as :class:`~repro.buchi.automaton.BuchiAutomaton`'s
    is, so a formula used as a cache key hashes its tree once."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = fields_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    cls.__hash__ = __hash__
    return cls


@_formula
class TrueFormula(Formula):
    def __str__(self) -> str:
        return "true"


@_formula
class FalseFormula(Formula):
    def __str__(self) -> str:
        return "false"


TRUE = TrueFormula()
FALSE = FalseFormula()


@_formula
class Letter(Formula):
    """"The current symbol is one of ``letters``."""

    letters: frozenset

    def __init__(self, letters: Iterable):
        object.__setattr__(self, "letters", frozenset(letters))

    def __str__(self) -> str:
        if len(self.letters) == 1:
            return str(next(iter(self.letters)))
        return "{" + ",".join(sorted(map(str, self.letters))) + "}"


def sym(letter) -> Letter:
    """The atomic formula "the current symbol equals ``letter``"."""
    return Letter([letter])


@_formula
class Not(Formula):
    operand: Formula

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"¬{_paren(self.operand)}"


@_formula
class And(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∧ {self.right})"


@_formula
class Or(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∨ {self.right})"


@_formula
class Next(Formula):
    operand: Formula

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"X {_paren(self.operand)}"


@_formula
class Until(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@_formula
class Release(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} R {self.right})"


def F(operand: Formula) -> Formula:
    """Eventually: ``F φ = true U φ``."""
    return Until(TRUE, operand)


def G(operand: Formula) -> Formula:
    """Always: ``G φ = false R φ``."""
    return Release(FALSE, operand)


def X(operand: Formula) -> Formula:
    return Next(operand)


def W(left: Formula, right: Formula) -> Formula:
    """Weak until: ``φ W ψ = ψ R (φ ∨ ψ)``."""
    return Release(right, Or(left, right))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


def nnf_over_alphabet(formula: Formula, alphabet: Iterable) -> Formula:
    """Negation normal form over an explicit alphabet: negated atoms
    become their complementary :class:`Letter`."""
    alphabet = frozenset(alphabet)

    def nnf(f: Formula, negated: bool) -> Formula:
        if isinstance(f, TrueFormula):
            return FALSE if negated else TRUE
        if isinstance(f, FalseFormula):
            return TRUE if negated else FALSE
        if isinstance(f, Letter):
            if not f.letters <= alphabet:
                raise ValueError(
                    f"atom {f} mentions symbols outside the alphabet"
                )
            return Letter(alphabet - f.letters) if negated else f
        if isinstance(f, Not):
            return nnf(f.operand, not negated)
        if isinstance(f, And):
            cls = Or if negated else And
            return cls(nnf(f.left, negated), nnf(f.right, negated))
        if isinstance(f, Or):
            cls = And if negated else Or
            return cls(nnf(f.left, negated), nnf(f.right, negated))
        if isinstance(f, Next):
            return Next(nnf(f.operand, negated))
        if isinstance(f, Until):
            cls = Release if negated else Until
            return cls(nnf(f.left, negated), nnf(f.right, negated))
        if isinstance(f, Release):
            cls = Until if negated else Release
            return cls(nnf(f.left, negated), nnf(f.right, negated))
        raise TypeError(f"unknown formula node {f!r}")

    return nnf(formula, False)


def _paren(f: Formula) -> str:
    text = str(f)
    return text if len(text) <= 2 or text.startswith("(") else f"({text})"
