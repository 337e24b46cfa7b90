"""Typed requests, replies, and failure modes of the analysis service.

A request names *what* to analyze (``subject``) plus the same keyword
context the :func:`repro.analysis.decompose` facade takes (``closure=``
for lattice elements, ``alphabet=`` for LTL formulas, ``samples=`` for
the sampled Rabin classification).  Requests are frozen dataclasses so
they can ride queues and appear in logs safely; none of them is
interpreted until a worker picks it up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType


class ServiceError(RuntimeError):
    """Base class for analysis-service failures."""


class ServiceOverloaded(ServiceError):
    """The bounded request queue is full — the request was *rejected at
    submission*, never enqueued, so the caller can shed load or retry."""


class ServiceTimeout(ServiceError):
    """The per-request deadline passed before a reply was available."""


class ServiceClosed(ServiceError):
    """The service has been shut down; no further requests are taken."""


@dataclass(frozen=True)
class Request:
    """Common shape of all service requests (see subclasses)."""

    subject: object
    closure: object = None
    alphabet: object = None

    @property
    def kind(self) -> str:
        return KIND_OF[type(self)]


@dataclass(frozen=True)
class DecomposeRequest(Request):
    """Decompose ``subject`` into safety ∧ liveness
    (:func:`repro.analysis.decompose` dispatch rules).

    ``certify=True`` asks for a machine-checkable
    :class:`repro.certs.Certificate` on the result's ``.certificate``
    attribute; certified and plain answers live on *separate* cache
    lines (``decompose+cert:`` vs ``decompose:``), so a caller who paid
    for a certificate never receives a bare cached answer, and vice
    versa."""

    certify: bool = False


@dataclass(frozen=True)
class ClassifyRequest(Request):
    """Classify ``subject`` as safety / liveness / both / neither.

    ``samples`` (regular trees) are required for Rabin subjects, whose
    exact classification is out of reach (DESIGN.md §4.4)."""

    samples: tuple = field(default=())


@dataclass(frozen=True)
class CheckRequest(Request):
    """Decompose ``subject``, then re-verify the decomposition identity
    — exactly, or against ``witness`` where exactness is unavailable.
    The reply value is the boolean verdict."""

    witness: object = None


@dataclass(frozen=True)
class MonitorRequest(Request):
    """Run the decomposition-driven monitor of ``subject`` (an LTL
    formula over ``alphabet``) over a finite trace of ``events``,
    returning a :class:`~repro.rv.verdicts.MonitorOutcome` — the
    four-valued verdict plus wait statistics.

    ``horizon`` is the finitary-liveness bound (Chatterjee–Fijalkow):
    a wait for the liveness conjunct's good event exceeding it yields
    ``LIVENESS_BOUND_EXCEEDED``; ``None`` leaves waits unbounded.  The
    compiled monitor is cached policy-side (one table per canonical
    formula + alphabet, every horizon shares it); the *answer* cache
    line additionally keys on the trace and horizon."""

    events: tuple = field(default=())
    horizon: int | None = None


KIND_OF = MappingProxyType({
    DecomposeRequest: "decompose",
    ClassifyRequest: "classify",
    CheckRequest: "check",
    MonitorRequest: "monitor",
})


@dataclass(frozen=True)
class ServiceResult:
    """A completed reply: the computed ``value`` plus serving metadata
    (``cached`` tells whether the memo LRU answered, ``key`` is the
    canonical cache key or ``None`` for uncacheable subjects)."""

    request: Request
    value: object
    cached: bool
    key: str | None
    elapsed_seconds: float
