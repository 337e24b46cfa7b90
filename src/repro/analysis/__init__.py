"""Unified safety/liveness classification, decomposition, machine
closure, and the paper's tables as reports.

:func:`decompose` is the one decomposition entry point for every domain
(see :mod:`repro.analysis.decompose` for the dispatch table)."""

from .classify import (
    PropertyClass,
    classify_automaton,
    classify_element,
    classify_formula,
    classify_rabin_on_samples,
)
from .decompose import BoundDecomposition, Decomposition, decompose
from .machine_closure import (
    canonical_pair,
    is_machine_closed_element,
    is_machine_closed_pair,
)
from .report import enforcement_table, q_table, rem_table, systems_table

__all__ = [
    "PropertyClass",
    "classify_element",
    "classify_automaton",
    "classify_formula",
    "classify_rabin_on_samples",
    "decompose",
    "Decomposition",
    "BoundDecomposition",
    "is_machine_closed_pair",
    "is_machine_closed_element",
    "canonical_pair",
    "rem_table",
    "q_table",
    "systems_table",
    "enforcement_table",
]
