"""One ``decompose()`` for every framework in the paper.

The paper proves the *same* theorem four times — Theorem 2/3 on lattices,
§2.4 on Büchi automata, Theorem 9 on Rabin tree automata, and the LTL
instance via translation.  This module is the single front door to all
of them:

    >>> from repro.analysis import decompose
    >>> d = decompose(automaton)                  # Büchi or Rabin
    >>> d = decompose(formula, alphabet={"a"})    # LTL
    >>> d = decompose(element, closure=cl)        # Theorem 2
    >>> d = decompose(element, closure=(cl1, cl2))  # Theorem 3
    >>> d.safety, d.liveness, d.verify()

Every branch returns an object satisfying the :class:`Decomposition`
protocol — ``.safety``, ``.liveness`` and ``.verify(witness)`` — so
callers (and the :mod:`repro.service` handlers) never need to know which
framework produced the result.  A new domain adds one dispatch branch
here and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.decomposition import _decompose as _buchi_decompose
from repro.lattice.closure import LatticeClosure
from repro.lattice.decomposition import Decomposition as LatticeDecomposition
from repro.lattice.decomposition import _decompose as _lattice_decompose
from repro.lattice.lattice import FiniteLattice
from repro.ltl.classify import _decompose_formula
from repro.ltl.syntax import Formula

__all__ = ["BoundDecomposition", "Decomposition", "decompose"]


@runtime_checkable
class Decomposition(Protocol):
    """What every ``decompose()`` result can do, whatever the framework.

    ``safety`` and ``liveness`` are the two conjuncts (elements,
    automata, or languages — framework-shaped), and ``verify`` re-checks
    the decomposition identity, exactly when the framework affords it
    and on a supplied witness otherwise."""

    @property
    def safety(self): ...

    @property
    def liveness(self): ...

    def verify(self, witness=None) -> bool: ...


@dataclass(frozen=True)
class BoundDecomposition:
    """A lattice :class:`~repro.lattice.decomposition.Decomposition`
    bound to the lattice and closures that produced it, so ``verify()``
    needs no arguments — the shape the unified protocol demands."""

    lattice: FiniteLattice
    cl1: LatticeClosure
    cl2: LatticeClosure
    inner: LatticeDecomposition
    #: Optional :class:`repro.certs.Certificate` attached by
    #: ``decompose(..., certify=True)``; excluded from equality so
    #: certified and plain results compare as the same answer.
    certificate: object = field(default=None, compare=False, repr=False)

    @property
    def element(self):
        return self.inner.element

    @property
    def safety(self):
        return self.inner.safety

    @property
    def liveness(self):
        return self.inner.liveness

    @property
    def complement_used(self):
        return self.inner.complement_used

    def verify(self, witness=None) -> bool:
        """Re-check all three certified facts from Theorem 3.  Lattice
        decompositions verify exactly against their own closures, so a
        witness is meaningless here and rejected loudly."""
        if witness is not None:
            raise TypeError(
                "lattice decompositions verify exactly; verify() takes "
                "no witness"
            )
        return self.inner.verify(self.lattice, self.cl1, self.cl2)


def _closure_pair(closure) -> tuple[LatticeClosure, LatticeClosure]:
    if isinstance(closure, LatticeClosure):
        return closure, closure
    if (
        isinstance(closure, tuple)
        and len(closure) == 2
        and all(isinstance(c, LatticeClosure) for c in closure)
    ):
        return closure
    raise TypeError(
        f"closure= must be a LatticeClosure or a (cl1, cl2) pair of "
        f"them, not {closure!r}"
    )


def _reject_options(kind: str, closure, alphabet, options) -> None:
    if closure is not None:
        raise TypeError(f"closure= does not apply when decomposing {kind}")
    if alphabet is not None:
        raise TypeError(f"alphabet= does not apply when decomposing {kind}")
    if options:
        raise TypeError(
            f"unexpected options {sorted(options)!r} when decomposing {kind}"
        )


def _certify(result, domain: str, subject: str):
    """Attach a sealed :class:`repro.certs.Certificate` to a finished
    decomposition (lazy import: :mod:`repro.certs.build` must not be a
    hard dependency of the facade, and RC003 forbids the reverse edge)."""
    from repro.certs import certificate_for

    certificate = certificate_for(result, domain=domain, subject=subject)
    return replace(result, certificate=certificate)


def decompose(
    obj, *, closure=None, alphabet=None, certify=False, **options
) -> Decomposition:
    """Decompose ``obj`` into its safety and liveness parts.

    Dispatch:

    ==========================  =============================================
    ``obj``                     route
    ==========================  =============================================
    :class:`BuchiAutomaton`     §2.4: ``B = B_S ∩ B_L``
    :class:`RabinTreeAutomaton` Theorem 9 (needs :mod:`repro.rabin`)
    :class:`Formula`            translate over ``alphabet=``, then §2.4
    anything else               a lattice element — requires ``closure=``,
                                a :class:`LatticeClosure` (Theorem 2) or a
                                ``(cl1, cl2)`` pair (Theorem 3)
    ==========================  =============================================

    The lattice route accepts the Theorem 2/3 keyword options
    ``complement=`` and ``check_hypotheses=`` and returns a
    :class:`BoundDecomposition`; all routes return an object satisfying
    the :class:`Decomposition` protocol.

    With ``certify=True`` the result additionally carries a sealed
    :class:`repro.certs.Certificate` on its ``.certificate`` attribute —
    a machine-checkable proof object that
    :func:`repro.certs.verify_certificate` can replay independently of
    the kernel that computed the answer (DESIGN.md §10).
    """
    if isinstance(obj, BuchiAutomaton):
        _reject_options("a Büchi automaton", closure, alphabet, options)
        result = _buchi_decompose(obj)
        return _certify(result, "buchi", obj.name) if certify else result
    if isinstance(obj, Formula):
        _reject_options("an LTL formula", closure, None, options)
        if alphabet is None:
            raise TypeError(
                "decompose(formula) needs alphabet=: LTL formulas only "
                "denote a language over an explicit alphabet"
            )
        result = _decompose_formula(obj, alphabet)
        return _certify(result, "ltl", str(obj)) if certify else result
    from repro.rabin.automaton import RabinTreeAutomaton

    if isinstance(obj, RabinTreeAutomaton):
        _reject_options("a Rabin tree automaton", closure, alphabet, options)
        from repro.rabin.decomposition import _decompose as _rabin_decompose

        result = _rabin_decompose(obj)
        return _certify(result, "rabin", obj.name) if certify else result
    if closure is None:
        raise TypeError(
            f"don't know how to decompose {type(obj).__name__!r}: expected "
            f"a BuchiAutomaton, RabinTreeAutomaton, Formula, or a lattice "
            f"element together with closure="
        )
    if alphabet is not None:
        raise TypeError("alphabet= does not apply when decomposing a lattice element")
    cl1, cl2 = _closure_pair(closure)
    lattice = cl1.lattice
    inner = _lattice_decompose(lattice, cl1, cl2, obj, **options)
    result = BoundDecomposition(lattice=lattice, cl1=cl1, cl2=cl2, inner=inner)
    return _certify(result, "lattice", "") if certify else result
