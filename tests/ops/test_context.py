"""RequestContext: identity, phase accounting, contextvar propagation —
including across the worker pool and into kernel phase timers."""

import threading

import pytest

from repro.obs.profile import PhaseTimer
from repro.obs.trace import RequestContext, Span, current_span
from repro.rv.pool import WorkerPool


class TestIdentity:
    def test_ids_are_process_unique(self):
        seen = {RequestContext().request_id for _ in range(100)}
        assert len(seen) == 100

    def test_explicit_id_wins(self):
        assert RequestContext(request_id="r-42").request_id == "r-42"

    def test_to_dict_is_the_inflight_row(self):
        ctx = RequestContext(kind="decompose", origin="http")
        row = ctx.to_dict()
        assert row["kind"] == "decompose"
        assert row["origin"] == "http"
        assert row["age_seconds"] >= 0
        assert row["deadline_remaining"] is None
        assert row["phases"] == {}
        assert row["subphases"] == {}

    def test_deadline_remaining_counts_down(self):
        import time

        ctx = RequestContext(deadline=time.perf_counter() + 10.0)
        remaining = ctx.remaining()
        assert 0 < remaining <= 10.0

    def test_a_request_is_a_root_even_inside_a_span(self):
        with Span("outer"):
            ctx = RequestContext()
        assert ctx.parent is None
        assert ctx.request is ctx


class TestPhases:
    def test_note_phase_accumulates(self):
        ctx = RequestContext()
        with ctx:
            Span("compute", start=1.0).close(end=1.25)
            Span("compute", start=2.0).close(end=2.25)
            Span("queue", start=3.0).close(end=3.1)
        assert ctx.phases() == pytest.approx({"compute": 0.5, "queue": 0.1})

    def test_phase_context_manager_times(self):
        ctx = RequestContext()
        with ctx:
            with Span("compute"):
                pass
        assert 0 <= ctx.phases()["compute"] < 1.0

    def test_subphases_are_separate(self):
        ctx = RequestContext()
        with ctx:
            with Span("compute"):
                Span("kernel.closure", start=0.0).close(end=0.4)
        assert set(ctx.phases()) == {"compute"}
        assert ctx.subphases() == {"kernel.closure": 0.4}

    def test_a_closed_stretch_is_charged_like_a_with_block(self):
        ctx = RequestContext()
        with ctx:
            Span("queue", start=10.0).close(end=10.25)
        assert ctx.phases() == {"queue": 0.25}

    def test_leaving_the_request_closes_it(self):
        ctx = RequestContext()
        with ctx:
            assert ctx.end is None
        assert ctx.end is not None


class TestPropagation:
    def test_use_context_nests_and_restores(self):
        assert current_span() is None
        outer, inner = RequestContext(), RequestContext()
        with outer:
            assert current_span() is outer
            with inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_plain_threads_do_not_inherit(self):
        seen = []
        with RequestContext():
            thread = threading.Thread(target=lambda: seen.append(current_span()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_pool_submit_carries_the_context(self):
        with WorkerPool(2, journal=None) as pool:
            ctx = RequestContext(kind="carried")
            with ctx:
                future = pool.submit(current_span)
            assert future.result() is ctx

    def test_pool_map_carries_the_context_per_item(self):
        with WorkerPool(4, journal=None) as pool:
            ctx = RequestContext(kind="mapped")
            with ctx:
                results = pool.map(lambda _: current_span(), range(8))
            assert all(result is ctx for result in results)

    def test_inline_pool_still_sees_the_context(self):
        pool = WorkerPool(0, journal=None)
        ctx = RequestContext()
        with ctx:
            assert pool.submit(current_span).result() is ctx


class TestKernelAttribution:
    def test_phase_timer_reports_into_the_active_context(self):
        timer = PhaseTimer("repro.obs.ctxdemo")
        ctx = RequestContext()
        with ctx:
            with Span("compute"):
                with timer.phase("closure"):
                    pass
        subphases = ctx.subphases()
        assert "repro.obs.ctxdemo.closure" in subphases
        assert subphases["repro.obs.ctxdemo.closure"] >= 0
        assert set(ctx.phases()) == {"compute"}

    def test_phase_timer_without_context_is_silent(self):
        timer = PhaseTimer("repro.obs.ctxdemo")
        with timer.phase("closure") as span:
            pass
        assert span.request is None
        assert current_span() is None
