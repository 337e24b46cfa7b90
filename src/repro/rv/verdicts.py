"""The four-valued verdict lattice of decomposition-driven monitors.

The paper's Theorem 2 splits every property into ``B = B_S ∩ B_L`` —
safety closure ∩ dense part — and a streaming monitor inherits exactly
that split: the safety conjunct is *falsifiable* on a finite prefix
(leave ``lcl(B)`` once and no extension recovers), while the liveness
conjunct is never falsifiable, only *late*.  Chatterjee–Fijalkow's
finitary strengthening makes lateness decidable too: bound the wait for
the next good event by a horizon ``k`` and "some wait exceeded ``k``"
is itself a safety property of the prefix — one exceedance falsifies
the bounded-liveness obligation forever.  The verdicts below are the
cross product of those two one-way doors, ordered by severity:

* :attr:`Verdict4.FALSIFIED_SAFETY` — the prefix left ``lcl(B)``; no
  extension satisfies the property.  Absorbing.
* :attr:`Verdict4.LIVENESS_BOUND_EXCEEDED` — the safety conjunct still
  holds, but some wait for the liveness conjunct's good event exceeded
  the configured horizon.  Absorbing (the finitary obligation is a
  safety property, so one violation is final).
* :attr:`Verdict4.SATISFIED_SO_FAR` — safety unviolated and the bound
  tracker currently sits on a good state (wait = 0): nothing is
  outstanding.  *Not* absorbing in general — the next event may start a
  new wait — except when the three-valued projection is already
  ``TRUE`` (every extension satisfies the property, the liveness
  obligation is discharged for good).
* :attr:`Verdict4.INCONCLUSIVE` — safety unviolated, a wait is open
  but still within the horizon.  The honest "don't know yet".

The three-valued :class:`~repro.ltl.monitoring.Verdict3` of the
reference monitor is the projection that forgets the bound tracker:
``FALSIFIED_SAFETY → FALSE``, definitive satisfaction ``→ TRUE``,
everything else ``→ UNKNOWN`` — which is how the refactored engine
stays bit-compatible with the PR-1 test suite while finally saying
something useful about liveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from repro.ltl.monitoring import Verdict3

__all__ = ["Verdict4", "MonitorOutcome", "SEVERITY", "BY_SEVERITY",
           "SEVERITY_NAMES", "most_severe"]


class Verdict4(Enum):
    """Four-valued verdict of a decomposition-driven monitor."""

    FALSIFIED_SAFETY = "falsified_safety"
    LIVENESS_BOUND_EXCEEDED = "liveness_bound_exceeded"
    SATISFIED_SO_FAR = "satisfied_so_far"
    INCONCLUSIVE = "inconclusive"

    @property
    def is_final(self) -> bool:
        """Whether this verdict, once reached, can only be superseded by
        a strictly more severe one (the two one-way doors)."""
        return self in (
            Verdict4.FALSIFIED_SAFETY, Verdict4.LIVENESS_BOUND_EXCEEDED
        )

    def to_verdict3(self) -> Verdict3:
        """The bound-forgetting projection onto the reference lattice.

        Note this is the projection of the *verdict*, not of the monitor
        state: ``SATISFIED_SO_FAR`` maps to ``UNKNOWN`` because "wait is
        zero right now" says nothing definitive — sessions that reach
        three-valued ``TRUE`` report it through the session API, which
        keeps both verdicts side by side.
        """
        if self is Verdict4.FALSIFIED_SAFETY:
            return Verdict3.FALSE
        return Verdict3.UNKNOWN


#: Alert precedence, lowest first: a session's reported verdict is the
#: most severe verdict its two conjunct trackers justify, and a session
#: keeps it as an index here.
BY_SEVERITY = (Verdict4.INCONCLUSIVE, Verdict4.SATISFIED_SO_FAR,
               Verdict4.LIVENESS_BOUND_EXCEEDED, Verdict4.FALSIFIED_SAFETY)
SEVERITY = MappingProxyType({v: i for i, v in enumerate(BY_SEVERITY)})
SEVERITY_NAMES = tuple(verdict.value for verdict in BY_SEVERITY)


def most_severe(*verdicts: Verdict4) -> Verdict4:
    """The join in severity order (alerting semantics)."""
    if not verdicts:
        raise ValueError("most_severe() needs at least one verdict")
    return max(verdicts, key=SEVERITY.__getitem__)


@dataclass(frozen=True)
class MonitorOutcome:
    """The result of running a decomposed monitor over one finite trace
    (the value a :class:`~repro.service.requests.MonitorRequest` reply
    carries).

    ``verdict`` is the four-valued verdict after the last event;
    ``verdict3`` the reference three-valued one; ``max_wait`` the
    longest wait for the liveness conjunct's good event observed along
    the trace (capped at ``horizon + 1`` once the bound is exceeded);
    ``horizon`` echoes the configured bound (``None`` = unbounded: the
    tracker reports waits but never latches).
    """

    verdict: Verdict4
    verdict3: Verdict3
    events: int
    max_wait: int
    horizon: int | None

    @property
    def falsified(self) -> bool:
        return self.verdict is Verdict4.FALSIFIED_SAFETY

    @property
    def bound_exceeded(self) -> bool:
        return self.verdict is Verdict4.LIVENESS_BOUND_EXCEEDED
