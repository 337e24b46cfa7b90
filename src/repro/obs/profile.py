"""Metric-bound spans: attribute wall time to named algorithm phases.

Two entry points, both producing :class:`~repro.obs.trace.Span` s that
also record into a histogram of the shared registry:

* :func:`timed` — a decorator charging a whole function to one
  histogram::

      @timed("repro.buchi.decompose")
      def decompose(automaton): ...

  records each call's wall time into ``repro_buchi_decompose_seconds``
  (dots become underscores, ``_seconds`` is appended per the naming
  convention);

* :class:`PhaseTimer` — for algorithms with internal structure::

      _PHASES = PhaseTimer("repro.ltl.translate")

      with _PHASES.phase("tableau"): ...
      with _PHASES.phase("degeneralize"): ...

  Each phase is a span named ``repro.ltl.translate.tableau`` that
  lands in the ``phase`` label of one histogram family
  (``repro_ltl_translate_seconds{phase="tableau"}``).

Because they are spans, a phase that runs while a request is being
served is charged to that request as a subphase, and shows up in the
recorder's trace while recording is on.  Overhead per phase/call: two
``perf_counter`` reads, a contextvar set/reset and one locked histogram
record — fine for phases that do real work, by design never placed on
per-event paths.
"""

from __future__ import annotations

import functools

from .metrics import REGISTRY, MetricRegistry
from .trace import Span


def metric_name(dotted: str, unit: str = "seconds") -> str:
    """``repro.buchi.decompose`` → ``repro_buchi_decompose_seconds``."""
    return dotted.replace(".", "_").replace("-", "_") + "_" + unit


def timed(name: str, *, registry: MetricRegistry | None = None):
    """Decorate a callable so every call is a span recording its wall
    time."""
    histogram = (registry or REGISTRY).histogram(
        metric_name(name), f"wall time of {name} calls"
    )

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with Span(name, histogram=histogram):
                return fn(*args, **kwargs)

        wrapper.__timed_metric__ = histogram
        return wrapper

    return decorate


class PhaseTimer:
    """The phases of one named algorithm: ``phase(p)`` is a span named
    ``<name>.<p>`` recording into ``<name>_seconds{phase=p}``."""

    def __init__(self, name: str, *, registry: MetricRegistry | None = None):
        self.name = name
        self._family = (registry or REGISTRY).histogram(
            metric_name(name), f"per-phase wall time of {name}", ("phase",)
        )
        self._phases: dict[str, tuple] = {}

    def phase(self, phase_name: str) -> Span:
        bound = self._phases.get(phase_name)
        if bound is None:
            bound = self._phases[phase_name] = (
                f"{self.name}.{phase_name}",
                self._family.labels(phase=phase_name),
            )
        return Span(bound[0], histogram=bound[1])

    def __repr__(self) -> str:
        return f"PhaseTimer({self.name!r}, phases={sorted(self._phases)})"
