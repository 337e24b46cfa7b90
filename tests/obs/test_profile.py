"""Tests for the profiling layer: @timed, PhaseTimer, naming."""

import pytest

from repro.obs.metrics import REGISTRY, MetricRegistry
from repro.obs.profile import PhaseTimer, metric_name, timed
from repro.obs.trace import Span


class TestMetricName:
    def test_dots_become_underscores_and_unit_appended(self):
        assert metric_name("repro.buchi.decompose") == "repro_buchi_decompose_seconds"

    def test_custom_unit(self):
        assert metric_name("repro.rv.batch", "bytes") == "repro_rv_batch_bytes"

    def test_dashes_normalized(self):
        assert metric_name("repro.two-copy") == "repro_two_copy_seconds"


class TestTimed:
    def test_records_each_call(self):
        reg = MetricRegistry()

        @timed("repro.test.fn", registry=reg)
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert fn(2) == 3
        histogram = fn.__timed_metric__
        assert histogram.count == 2
        assert histogram.sum >= 0

    def test_metric_lands_in_registry(self):
        reg = MetricRegistry()

        @timed("repro.test.fn2", registry=reg)
        def fn():
            pass

        fn()
        names = [f.name for f in reg.families()]
        assert "repro_test_fn2_seconds" in names

    def test_wraps_preserves_identity(self):
        reg = MetricRegistry()

        @timed("repro.test.named", registry=reg)
        def original_name():
            """docstring survives"""

        assert original_name.__name__ == "original_name"
        assert original_name.__doc__ == "docstring survives"

    def test_records_even_when_raising(self):
        reg = MetricRegistry()

        @timed("repro.test.boom", registry=reg)
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            boom()
        assert boom.__timed_metric__.count == 1


def _phase_count(dotted: str, phase: str, registry=REGISTRY) -> int:
    return registry.histogram(
        metric_name(dotted), f"per-phase wall time of {dotted}", ("phase",)
    ).labels(phase=phase).count


class TestPhaseTimer:
    def test_phases_are_labeled_histograms(self):
        reg = MetricRegistry()
        timer = PhaseTimer("repro.test.algo2", registry=reg)
        with timer.phase("only"):
            pass
        family = reg.histogram(
            "repro_test_algo2_seconds",
            "per-phase wall time of repro.test.algo2",
            ("phase",),
        )
        assert family.labels(phase="only").count == 1

    def test_attached_tracer_gets_phase_spans(self, recorder):
        """Phases are spans: named ``<timer>.<phase>``, children of the
        current span, recorded while the recorder is on."""
        reg = MetricRegistry()
        timer = PhaseTimer("repro.test.algo4", registry=reg)
        with Span("outer") as outer:
            with timer.phase("inner") as inner:
                pass
        names = [s.name for s in recorder.finished()]
        assert names == ["repro.test.algo4.inner", "outer"]
        assert inner.parent is outer

    def test_timed_calls_are_spans(self, recorder):
        reg = MetricRegistry()

        @timed("repro.test.spanned", registry=reg)
        def fn():
            pass

        fn()
        assert [s.name for s in recorder.finished()] == ["repro.test.spanned"]

    def test_phase_records_on_exception(self):
        reg = MetricRegistry()
        timer = PhaseTimer("repro.test.algo5", registry=reg)
        with pytest.raises(ValueError):
            with timer.phase("p"):
                raise ValueError("x")
        assert _phase_count("repro.test.algo5", "p", reg) == 1


class TestInstrumentedPipelines:
    """The pipeline instrumentation feeds the *global* registry — spot
    check that running real code moves the intended metrics."""

    def test_ltl_translate_phases_count_up(self):
        from repro.ltl import parse
        from repro.ltl.translate import _PHASES, _TRANSLATIONS, translate

        phases = ("tableau", "degeneralize", "trim", "quotient")
        before = _TRANSLATIONS.value
        phases_before = {p: _phase_count(_PHASES.name, p) for p in phases}
        translate(parse("G (a -> F b)"), "ab")
        assert _TRANSLATIONS.value == before + 1
        for phase in phases:
            assert _phase_count(_PHASES.name, phase) == phases_before[phase] + 1

    def test_buchi_decompose_counts_up(self):
        from repro.buchi.decomposition import _DECOMPOSITIONS, _decompose as decompose
        from repro.ltl import parse
        from repro.ltl.translate import translate

        automaton = translate(parse("G a"), "ab")
        before = _DECOMPOSITIONS.value
        decompose(automaton)
        assert _DECOMPOSITIONS.value == before + 1

    def test_lattice_closure_fixpoint_counts_up(self):
        from repro.lattice.builders import powerset_lattice
        from repro.lattice.closure import _FIXPOINT_ITERATIONS, LatticeClosure

        lattice = powerset_lattice("xy")
        before = _FIXPOINT_ITERATIONS.value
        LatticeClosure.from_closed_elements(lattice, [lattice.top])
        assert _FIXPOINT_ITERATIONS.value > before

    def test_compile_cache_hit_miss_counters(self):
        from repro.ltl import parse
        from repro.rv.compile import _CACHE_HITS, _CACHE_MISSES, CompileCache

        cache = CompileCache()
        hits, misses = _CACHE_HITS.value, _CACHE_MISSES.value
        cache.get(parse("G (a & F b)"), "ab")
        assert _CACHE_MISSES.value == misses + 1
        cache.get(parse("G (a & F b)"), "ab")
        assert _CACHE_HITS.value == hits + 1
