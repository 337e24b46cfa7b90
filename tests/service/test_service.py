"""Tests for AnalysisService: request routing, cache-by-isomorphism,
admission control, deadlines, lifecycle, tracing — and the 8-client
concurrency acceptance test (no lost or duplicated replies)."""

import threading

import pytest

from repro.buchi import BuchiAutomaton
from repro.lattice import LatticeClosure, boolean_lattice
from repro.ltl import parse, translate
from repro.obs import REGISTRY
from repro.obs.trace import Span
from repro.service import (
    AnalysisService,
    CheckRequest,
    ClassifyRequest,
    DecomposeRequest,
    ResultCache,
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
)

ALPHABET = frozenset({"a", "b"})


def automaton(text="a & F !a"):
    return translate(parse(text), "ab")


def counter(name, **labels):
    """The current value of one labeled child of a service counter."""
    family = REGISTRY.counter(name, labelnames=tuple(labels))
    return family.labels(**labels).value


def warmed_cache(texts):
    """A cache holding the decompositions of ``texts``, filled through
    a ``workers=0`` service so no pool ever ran."""
    cache = ResultCache()
    with AnalysisService(workers=0, cache=cache) as warm:
        for text in texts:
            warm.request(DecomposeRequest(automaton(text)))
    return cache


@pytest.fixture
def service():
    with AnalysisService(workers=2, max_pending=32) as svc:
        yield svc


class TestRouting:
    def test_decompose_buchi(self, service):
        result = service.request(DecomposeRequest(automaton()))
        assert result.value.verify_exact()
        assert not result.cached
        assert result.key.startswith("decompose:buchi:")

    def test_decompose_formula(self, service):
        result = service.request(
            DecomposeRequest(parse("a U b"), alphabet=ALPHABET)
        )
        assert result.value.verify_parts()

    def test_decompose_lattice_element(self, service):
        lat = boolean_lattice(2)
        cl = LatticeClosure.from_closed_elements(lat, [frozenset({0})])
        result = service.request(
            DecomposeRequest(frozenset({0}), closure=cl)
        )
        assert result.value.verify()
        assert result.key.startswith("decompose:latctx:")

    def test_classify_formula(self, service):
        from repro.analysis import PropertyClass

        result = service.request(
            ClassifyRequest(parse("G a"), alphabet=ALPHABET)
        )
        assert result.value == PropertyClass.SAFETY

    def test_check_request(self, service):
        result = service.request(CheckRequest(automaton()))
        assert result.value is True

    def test_non_request_rejected(self, service):
        with pytest.raises(TypeError, match="Request"):
            service.submit("not a request")


class TestCaching:
    def test_repeat_hits(self, service):
        first = service.request(DecomposeRequest(automaton()))
        second = service.request(DecomposeRequest(automaton()))
        assert not first.cached and second.cached
        assert second.value is first.value

    def test_isomorphic_subjects_share_a_cache_line(self, service):
        m = automaton()
        service.request(DecomposeRequest(m))
        renamed = service.request(DecomposeRequest(m.renumbered()))
        assert renamed.cached

    def test_distinct_subjects_do_not_collide(self, service):
        a = service.request(DecomposeRequest(automaton("G a")))
        b = service.request(DecomposeRequest(automaton("F a")))
        assert a.key != b.key
        assert not b.cached

    def test_lattice_repeats_still_hit(self, service):
        lat = boolean_lattice(2)
        cl = LatticeClosure.from_closed_elements(lat, [frozenset({0})])
        first = service.request(DecomposeRequest(frozenset({0}), closure=cl))
        repeat = service.request(DecomposeRequest(frozenset({0}), closure=cl))
        assert not first.cached and repeat.cached

    def test_symmetric_lattice_subjects_do_not_alias(self, service):
        """Regression: boolean_lattice(2) has an atom-swap automorphism,
        and the identity closure commutes with it — the two atoms are
        indistinguishable up to isomorphism but decompose to *different
        concrete elements*, so they must not share a cache line."""
        lat = boolean_lattice(2)
        cl = LatticeClosure.identity(lat)
        first = service.request(DecomposeRequest(frozenset({0}), closure=cl))
        second = service.request(DecomposeRequest(frozenset({1}), closure=cl))
        assert first.key != second.key
        assert not second.cached
        assert first.value.element == frozenset({0})
        assert second.value.element == frozenset({1})
        assert second.value.verify()

    def test_kinds_do_not_share_lines(self, service):
        service.request(DecomposeRequest(parse("G a"), alphabet=ALPHABET))
        classified = service.request(
            ClassifyRequest(parse("G a"), alphabet=ALPHABET)
        )
        assert not classified.cached

    def test_witness_checks_are_uncacheable(self, service):
        from repro.omega import LassoWord

        request = CheckRequest(automaton(), witness=LassoWord("a", "b"))
        first = service.request(request)
        second = service.request(request)
        assert first.key is None and second.key is None
        assert not second.cached

    def test_shared_cache_across_services(self):
        cache = ResultCache()
        with AnalysisService(workers=0, cache=cache) as one:
            one.request(DecomposeRequest(automaton()))
        with AnalysisService(workers=0, cache=cache) as two:
            assert two.request(DecomposeRequest(automaton())).cached


class TestDegradation:
    def test_overload_rejects_at_submit(self, monkeypatch):
        import repro.service.handlers as handlers_module

        release = threading.Event()
        real_compute = handlers_module.compute

        def wedged(request):
            release.wait(timeout=5)
            return real_compute(request)

        monkeypatch.setattr(handlers_module, "compute", wedged)
        with AnalysisService(workers=2, max_pending=2) as svc:
            for _ in range(2):  # fill the admission window
                svc.submit(DecomposeRequest(automaton()))
            with pytest.raises(ServiceOverloaded):
                svc.submit(DecomposeRequest(automaton()))
            release.set()

    def test_expired_deadline_raises_timeout(self, service):
        reply = service.submit(DecomposeRequest(automaton()), timeout=0.0)
        with pytest.raises(ServiceTimeout):
            reply.result()

    def test_default_timeout_applies(self):
        with AnalysisService(workers=0, default_timeout=0.0) as svc:
            with pytest.raises(ServiceTimeout):
                svc.request(DecomposeRequest(automaton()))

    def test_closed_service_rejects(self):
        svc = AnalysisService(workers=0)
        svc.shutdown()
        with pytest.raises(ServiceClosed):
            svc.submit(DecomposeRequest(automaton()))

    def test_submit_racing_pool_shutdown_maps_to_closed(self, monkeypatch):
        """submit() passing the _closed check while the executor shuts
        down must surface ServiceClosed and roll back admission — not
        leak the pending count behind a raw RuntimeError."""
        svc = AnalysisService(workers=2)

        def racing_submit(*args, **kwargs):
            raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(svc.pool, "submit", racing_submit)
        with pytest.raises(ServiceClosed):
            svc.submit(DecomposeRequest(automaton()))
        assert svc.pending == 0
        monkeypatch.undo()
        svc.shutdown()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_key_errors_surface_from_result_not_submit(self, workers):
        """The key is built on the submitting thread, but a subject it
        cannot be built for fails the request like any compute error:
        from ``result()``, counted as an error, admission rolled back."""
        lat = boolean_lattice(2)
        cl = LatticeClosure.from_closed_elements(lat, [frozenset({0})])
        before = counter("repro_service_requests_total",
                         kind="decompose", outcome="error")
        with AnalysisService(workers=workers) as svc:
            reply = svc.submit(DecomposeRequest(frozenset({7}), closure=cl))
            with pytest.raises(KeyError, match="not in lattice"):
                reply.result()
            assert svc.pending == 0
        assert counter("repro_service_requests_total",
                       kind="decompose", outcome="error") == before + 1

    def test_compute_errors_reach_the_caller(self, service):
        with pytest.raises(TypeError, match="alphabet"):
            service.request(DecomposeRequest(parse("G a")))

    def test_max_pending_validation(self):
        with pytest.raises(ValueError):
            AnalysisService(max_pending=0)


class TestHitPath:
    """Cache hits are served on the submitting thread: no pool handoff,
    and every request limit still applies."""

    TEXTS = ("G a", "F b", "a U b", "GF a", "a & F !a")

    def test_hits_never_touch_the_pool(self):
        cache = warmed_cache(self.TEXTS)
        before = cache.info()
        with AnalysisService(workers=4, cache=cache) as svc:
            replies = [
                svc.submit(DecomposeRequest(
                    automaton(self.TEXTS[index % len(self.TEXTS)])))
                for index in range(50)
            ]
            results = [reply.result() for reply in replies]
            assert svc.pool.started is False
        after = cache.info()
        assert after.hits - before.hits == 50
        assert after.misses == before.misses
        assert all(result.cached for result in results)
        for reply, result in zip(replies, results):
            phases = reply.context.phases()
            assert "queue" not in phases
            # DESIGN §11: the phases partition the request's wall time
            assert sum(phases.values()) == pytest.approx(
                result.elapsed_seconds, rel=0.2)

    def test_overload_rejects_cached_requests(self, monkeypatch):
        import repro.service.handlers as handlers_module

        cache = warmed_cache(["G a"])
        release = threading.Event()
        real_compute = handlers_module.compute

        def wedged(request):
            release.wait(timeout=5)
            return real_compute(request)

        monkeypatch.setattr(handlers_module, "compute", wedged)
        with AnalysisService(workers=2, max_pending=2, cache=cache) as svc:
            wedged_replies = [svc.submit(DecomposeRequest(automaton("F b")))
                              for _ in range(2)]
            with pytest.raises(ServiceOverloaded):
                svc.submit(DecomposeRequest(automaton("G a")))
            release.set()
            for reply in wedged_replies:
                assert not reply.result().cached

    def test_expired_deadline_sheds_cached_requests(self):
        cache = warmed_cache(["G a"])
        before = counter("repro_service_timeouts_total", kind="decompose")
        with AnalysisService(workers=2, cache=cache) as svc:
            reply = svc.submit(DecomposeRequest(automaton("G a")), timeout=0.0)
            with pytest.raises(ServiceTimeout, match="before compute"):
                reply.result()
            assert svc.pending == 0
        assert counter("repro_service_timeouts_total",
                       kind="decompose") == before + 1

    def test_closed_service_rejects_cached_requests(self):
        svc = AnalysisService(workers=2, cache=warmed_cache(["G a"]))
        svc.shutdown()
        with pytest.raises(ServiceClosed):
            svc.submit(DecomposeRequest(automaton("G a")))

    def test_certificate_hits_replay_on_the_pool(self):
        cache = ResultCache()
        request = DecomposeRequest(automaton(), certify=True)
        with AnalysisService(workers=0, cache=cache) as warm:
            warm.request(request)
        with AnalysisService(workers=2, cache=cache,
                             verify_on_hit=True) as svc:
            reply = svc.submit(DecomposeRequest(automaton(), certify=True))
            result = reply.result()
            assert svc.pool.started is True
        assert result.cached
        assert {"compute", "queue", "verify"} <= set(reply.context.phases())


class TestConcurrency:
    def test_eight_clients_no_lost_or_duplicated_replies(self):
        """Acceptance: 8 concurrent client threads against one shared
        service; every client gets exactly its own replies back."""
        formulas = ["G a", "F b", "a U b", "GF a", "G (a -> X b)",
                    "FG a", "a W b", "F (a & b)"]
        per_client = 25
        replies = {}
        errors = []

        with AnalysisService(workers=4, max_pending=512) as svc:
            def client(index):
                own = []
                try:
                    for step in range(per_client):
                        text = formulas[(index + step) % len(formulas)]
                        request = ClassifyRequest(
                            parse(text), alphabet=ALPHABET
                        )
                        result = svc.request(request)
                        assert result.request is request  # nobody else's reply
                        own.append((text, result.value))
                except BaseException as exc:  # noqa: BLE001 — collected
                    errors.append((index, exc))
                replies[index] = own

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert errors == []
        assert len(replies) == 8
        assert all(len(own) == per_client for own in replies.values())
        # same formula ⇒ same verdict, across all clients
        verdicts = {}
        for own in replies.values():
            for text, verdict in own:
                assert verdicts.setdefault(text, verdict) == verdict

    def test_concurrent_misses_on_one_key_compute_once_or_adopt(self):
        svc = AnalysisService(workers=4, max_pending=64)
        gate = threading.Barrier(4)
        values = []

        def client():
            gate.wait()
            values.append(svc.request(DecomposeRequest(automaton())).value)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        svc.shutdown()
        assert len({id(v) for v in values}) == 1


class TestObservability:
    def test_snapshot_keys(self, service):
        service.request(DecomposeRequest(automaton()))
        snap = service.snapshot()
        assert snap["pending"] == 0
        assert snap["workers"] == 2
        assert snap["cache_misses"] >= 1

    def test_spans_enqueue_compute_reply(self, recorder):
        """A miss served on a pool worker is one span tree: the request
        root, its compute → queue → compute phases, and the kernel spans
        below the worker's compute phase — every span inside its
        parent's time."""
        with AnalysisService(workers=2) as svc:
            reply = svc.submit(DecomposeRequest(automaton()))
            reply.result()
        root = reply.context
        spans = [s for s in recorder.finished() if s.request is root]
        assert spans[-1] is root and root.parent_id is None
        phases = [s for s in spans if s.parent is root]
        assert [s.name for s in phases] == ["compute", "queue", "compute"]
        # the phases tile the request's lifetime in order
        for before, after in zip(phases, phases[1:]):
            assert before.end <= after.start
        kernel = [s for s in spans[:-1] if s.parent is not root]
        assert kernel
        assert all(s.name.startswith("repro.") for s in kernel)
        for span in spans[:-1]:
            assert span.parent in spans
            assert span.parent_id == span.parent.span_id
            assert span.parent.start <= span.start <= span.end <= span.parent.end

    def test_miss_on_a_worker_charges_kernel_spans_to_its_request(self):
        with AnalysisService(workers=2) as svc:
            reply = svc.submit(DecomposeRequest(automaton("G (a -> F b)")))
            result = reply.result()
            assert svc.pool.started
        assert not result.cached
        subphases = reply.context.subphases()
        assert subphases["repro.buchi.decompose.closure"] > 0
        assert set(reply.context.phases()) == {"compute", "queue"}

    def test_kernel_subphases_are_the_spans_under_the_root(self, recorder):
        with AnalysisService(workers=2) as svc:
            reply = svc.submit(DecomposeRequest(automaton("G (b -> F a)")))
            reply.result()
        root = reply.context
        kernel = [s for s in recorder.finished()
                  if s.request is root and s is not root
                  and s.parent is not root]
        names = {s.name for s in kernel}
        assert "repro.buchi.decompose.closure" in names
        assert names == set(root.subphases())
        for name, seconds in root.subphases().items():
            assert sum(s.duration() for s in kernel
                       if s.name == name) == pytest.approx(seconds)
        worker_compute = [s for s in recorder.finished()
                          if s.parent is root and s.name == "compute"][-1]
        for span in kernel:
            # computed on the pool thread, under the worker's compute phase
            assert span.thread_id == worker_compute.thread_id
            assert span.thread_id != threading.get_ident()
            ancestor = span.parent
            while ancestor.parent is not root:
                ancestor = ancestor.parent
            assert ancestor is worker_compute

    def test_untracked_requests_open_no_phase_spans(self, recorder):
        """``track_inflight=False`` opens no phase span, so nothing is
        charged to a span the caller has current."""
        with AnalysisService(workers=2, track_inflight=False) as svc:
            with Span("caller") as caller:
                request = DecomposeRequest(automaton("G (a -> F a)"))
                miss = svc.submit(request)
                miss.result()
                hit = svc.submit(request)
                hit.result()
        assert miss.context is None and hit.context is None
        names = {s.name for s in recorder.finished()}
        assert names.isdisjoint({"service.request", "compute", "queue"})
        assert caller.request is None

    def test_pending_property_drains_to_zero(self, service):
        for _ in range(4):
            service.request(DecomposeRequest(automaton()))
        assert service.pending == 0
