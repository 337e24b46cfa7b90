"""Tests for spans: contextvar nesting, parents across the worker pool,
the bounded recorder ring, Chrome/JSONL export — and the end-to-end
guarantee that parent/child structure survives the RvEngine worker pool."""

import contextvars
import json
import sys
import threading

import pytest

from repro.ltl import parse
from repro.obs.trace import MAX_SPANS, RECORDER, Span, current_span
from repro.rv import RvEngine


class TestNesting:
    def test_nested_with_blocks_form_a_tree(self, recorder):
        with Span("root") as root:
            with Span("child") as child:
                with Span("grandchild") as grandchild:
                    pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert [s.name for s in recorder.finished()] == [
            "grandchild", "child", "root"
        ]

    def test_siblings_share_parent(self, recorder):
        with Span("root") as root:
            with Span("a") as a:
                pass
            with Span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id

    def test_current_tracks_innermost(self):
        assert current_span() is None
        with Span("root") as root:
            assert current_span() is root
            with Span("child") as child:
                assert current_span() is child
            assert current_span() is root
        assert current_span() is None

    def test_explicit_parent_crosses_threads(self, recorder):
        """A thread running in a copy of the submitter's context (what
        the worker pool does) parents its spans to the submitter's."""
        seen = {}

        def worker():
            with Span("worker") as span:
                seen["parent_id"] = span.parent_id
                seen["thread_id"] = span.thread_id

        with Span("root") as root:
            t = threading.Thread(target=contextvars.copy_context().run,
                                 args=(worker,))
            t.start()
            t.join()
        assert seen["parent_id"] == root.span_id
        assert seen["thread_id"] != threading.get_ident()

    def test_plain_threads_start_without_a_parent(self, recorder):
        seen = []
        with Span("root"):
            t = threading.Thread(target=lambda: seen.append(current_span()))
            t.start()
            t.join()
        assert seen == [None]

    def test_span_timing_and_attrs(self):
        with Span("op", batch=3) as span:
            span.set(result="ok")
        assert span.end >= span.start
        assert span.duration() >= 0
        assert span.attrs == {"batch": 3, "result": "ok"}

    def test_exception_is_recorded_and_restores_current(self):
        with pytest.raises(ValueError):
            with Span("op") as span:
                raise ValueError("x")
        assert span.attrs == {"error": "ValueError"}
        assert span.end is not None
        assert current_span() is None

    def test_close_ends_a_span_never_made_current(self, recorder):
        with Span("root") as root:
            span = Span("stretch", start=root.start)
            assert current_span() is root
            span.close(end=root.start + 0.5)
        assert span.parent_id == root.span_id
        assert span.duration() == pytest.approx(0.5)
        assert span in recorder.finished()


class TestSamplingAndBounds:
    def test_max_spans_bounds_retention(self, recorder):
        for i in range(MAX_SPANS + 4):
            Span(f"s{i}").close()
        names = [s.name for s in recorder.finished()]
        assert len(names) == MAX_SPANS
        assert names[0] == "s4" and names[-1] == f"s{MAX_SPANS + 3}"

    def test_clear(self, recorder):
        with Span("x"):
            pass
        recorder.clear()
        assert recorder.finished() == []


class TestNullTracer:
    """Recording off — the default — keeps nothing."""

    def test_null_tracer_is_inert(self):
        assert RECORDER.recording is False
        with Span("anything", k=1) as span:
            assert span.set(a=1) is span
        assert span.span_id == 0
        assert RECORDER.finished() == []
        assert span.duration() >= 0.0

    def test_spans_opened_before_start_are_not_recorded(self, recorder):
        recorder.stop()
        with Span("before") as before:
            recorder.start()
            with Span("after") as after:
                pass
        assert recorder.finished() == [after]
        assert after.parent_id is None
        assert before.span_id == 0


class TestExport:
    def _tree(self, recorder):
        with Span("root", kind="test"):
            with Span("child"):
                pass
        return recorder

    def test_chrome_events_structure(self, recorder):
        events = self._tree(recorder).chrome_events()
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert {"name", "pid", "tid", "args"} <= set(event)
        by_name = {e["name"]: e for e in events}
        assert (by_name["child"]["args"]["parent_id"]
                == by_name["root"]["args"]["span_id"])
        assert by_name["root"]["args"]["kind"] == "test"

    def test_export_chrome_is_loadable_json(self, recorder, tmp_path):
        path = tmp_path / "trace.json"
        self._tree(recorder).export_chrome(path)
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) == 2

    def test_export_jsonl(self, recorder, tmp_path):
        path = tmp_path / "spans.jsonl"
        self._tree(recorder).export_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["child", "root"]
        assert records[0]["parent_id"] == records[1]["span_id"]

    def test_span_tree_groups_by_parent(self, recorder):
        tree = self._tree(recorder).span_tree()
        roots = tree[None]
        assert [s.name for s in roots] == ["root"]
        assert [s.name for s in tree[roots[0].span_id]] == ["child"]


class TestOpenSpanExport:
    """Regression: a trace dumped *mid-request* must show the spans that
    are still running, not silently drop them."""

    def test_open_spans_are_listed_while_active(self, recorder):
        with Span("outer"):
            with Span("inner"):
                assert [s.name for s in recorder.open_spans()] == [
                    "outer", "inner"
                ]
            assert [s.name for s in recorder.open_spans()] == ["outer"]
        assert recorder.open_spans() == []

    def test_chrome_export_emits_open_spans_as_begin_events(self, recorder):
        with Span("serving", kind="decompose"):
            events = recorder.chrome_events()
            assert len(events) == 1
            begin = events[0]
            assert begin["ph"] == "B"
            assert begin["name"] == "serving"
            assert begin["args"]["open"] is True
            assert "dur" not in begin
        # once exited it exports as a normal complete event
        done = recorder.chrome_events()
        assert len(done) == 1
        assert done[0]["ph"] == "X"

    def test_jsonl_export_marks_open_spans(self, recorder, tmp_path):
        path = tmp_path / "mid.jsonl"
        with Span("finished"):
            pass
        with Span("running"):
            recorder.export_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert "running" in by_name, "open span was dropped from the export"
        assert by_name["running"]["open"] is True
        assert by_name["running"]["duration"] >= 0
        assert "open" not in by_name["finished"]

    def test_mixed_export_keeps_finished_complete(self, recorder):
        with Span("done"):
            pass
        with Span("live"):
            events = recorder.chrome_events()
        phases = {e["name"]: e["ph"] for e in events}
        assert phases == {"done": "X", "live": "B"}

    def test_null_tracer_has_no_open_spans(self):
        """Recording off: spans are never listed as open."""
        with Span("anything"):
            assert RECORDER.open_spans() == []

    def test_clear_forgets_open_spans(self, recorder):
        with Span("will_be_cleared"):
            recorder.clear()
            assert recorder.open_spans() == []
        # the late close after clear() must not resurrect or crash
        assert recorder.open_spans() == []
        assert recorder.finished() == []


class TestConcurrentRecording:
    def test_threads_lose_no_spans_and_keep_their_own_parents(self, recorder):
        threads, per_thread = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(index):
                with Span(f"root{index}") as root:
                    for _ in range(per_thread - 1):
                        with Span("child") as child:
                            assert child.parent is root

            pool = [threading.Thread(target=work, args=(i,))
                    for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        spans = recorder.finished()
        assert len(spans) == threads * per_thread
        assert recorder.open_spans() == []
        roots = {s.span_id: s for s in spans if s.parent is None}
        assert len(roots) == threads
        for span in spans:
            if span.parent is not None:
                assert span.parent_id in roots
                assert span.thread_id == roots[span.parent_id].thread_id


class TestEngineIntegration:
    """ingest→drain nesting survives the worker pool: the pool's context
    copy carries the ingest span to every group drain."""

    SPECS = ["G a", "F b", "G (a -> X b)", "GF a"]

    def _run_engine(self, workers, recorder):
        with RvEngine(workers=workers) as engine:
            for i, spec in enumerate(self.SPECS):
                engine.open_session(i, parse(spec), "ab")
            recorder.clear()  # keep only the ingest's spans
            engine.ingest([(i, "a") for i in range(len(self.SPECS))] * 8)
        return recorder.finished()

    @pytest.mark.parametrize("workers", [0, 4])
    def test_drain_spans_are_children_of_ingest(self, workers, recorder):
        spans = self._run_engine(workers, recorder)
        ingests = [s for s in spans if s.name == "rv.ingest"]
        drains = [s for s in spans if s.name == "rv.drain_group"]
        assert len(ingests) == 1
        ingest = ingests[0]
        # four distinct formulas → four monitor groups, and nothing else
        assert len(drains) == 4
        assert len(spans) == 5
        assert ingest.parent_id is None
        for drain in drains:
            assert drain.parent_id == ingest.span_id
            assert drain.parent is ingest
            assert ingest.start <= drain.start
            assert drain.end <= ingest.end
        assert ingest.attrs["events"] == 32
        assert ingest.attrs["sessions"] == 4
        assert ingest.attrs["groups"] == 4
        assert sum(d.attrs["events"] for d in drains) == 32

    def test_pool_drains_run_on_pool_threads(self, recorder):
        spans = self._run_engine(4, recorder)
        drains = [s for s in spans if s.name == "rv.drain_group"]
        assert all(s.thread_id != 0 for s in drains)
        ingest = next(s for s in spans if s.name == "rv.ingest")
        assert {s.thread_id for s in drains} != {ingest.thread_id}

    def test_a_failing_drain_closes_its_span_with_the_error(
            self, recorder, monkeypatch):
        from repro.rv.session import TraceSession

        def broken_advance(session, indices):
            raise RuntimeError("drain failed")

        with RvEngine(workers=0) as engine:
            engine.open_session(0, parse("G a"), "ab")
            recorder.clear()
            monkeypatch.setattr(TraceSession, "advance", broken_advance)
            with pytest.raises(RuntimeError):
                engine.ingest([(0, "a")])
        assert recorder.open_spans() == []
        spans = {s.name: s for s in recorder.finished()}
        assert set(spans) == {"rv.ingest", "rv.drain_group"}
        assert spans["rv.drain_group"].parent is spans["rv.ingest"]
        assert spans["rv.drain_group"].attrs["error"] == "RuntimeError"
        assert spans["rv.ingest"].attrs["error"] == "RuntimeError"

    def test_untraced_engine_records_nothing(self):
        with RvEngine(workers=4) as engine:
            for i, spec in enumerate(self.SPECS):
                engine.open_session(i, parse(spec), "ab")
            engine.ingest([(i, "a") for i in range(len(self.SPECS))] * 5)
        assert RECORDER.finished() == []
        assert RECORDER.open_spans() == []
