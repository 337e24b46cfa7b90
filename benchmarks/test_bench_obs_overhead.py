"""What the ops plane costs — the observability-overhead price list.

The same warm 100-request workload as ``test_bench_service`` is served
under four instrumentation configurations:

* **off** — ``journal=None, track_inflight=False``: no request
  contexts, no journal (the PR-4 baseline);
* **journal+context** — the default production posture: every request
  carries a :class:`RequestContext` (in-flight table, phase attribution,
  slow-log) and the journal records lifecycle edges and anomalies; a
  *healthy* request journals zero events — that design choice **is** the
  overhead budget's mechanism;
* **debug posture** — ``min_level="debug"``: the fully-correlated
  per-request stream (admitted, cache outcome, completion — three
  recorded events per request), priced honestly as what flipping the
  knob costs;
* **journal+context+sampler** — production posture while a 50 Hz
  :class:`~repro.ops.sampler.SamplingProfiler` samples every thread
  (the ``/debug/profile`` steady-state cost).

All measurements land in ``BENCH_obs_overhead.json``.  Because the
per-request delta (a few µs) is far below the run-to-run allocator and
frequency noise of whole-pass timings, the headline ratios come from
*paired interleaved* A/B passes: off and instrumented alternate within
one measurement loop (order swapping each round to cancel drift), each
round contributes one b/a ratio, and the headline is the median of
those per-round ratios — across repeated trials this estimator was
stable to ~±1% where sequential A/B swung ±10%.  The fastest-quartile
ratio (noise-robust floor) is reported alongside, and so is a **null
ratio** — the same estimator applied to two *identical* off-config
services — which calibrates the measurement floor itself (two equal
configs read as +1–2% on a shared box purely from heap layout and
interference; overhead claims below that line are not resolvable by
wall timing).  The isolated per-request instrumentation sequence is
additionally timed tightly and reported as
``instrumentation_us_per_request`` — the component-level truth.  The
acceptance budget is journal+context ≤ 5% of warm throughput on an
idle machine; the *enforced* bars are looser (see
``test_overhead_budget``) so a loaded CI runner cannot flake a correct
build, while the honest measured ratios are printed and persisted.
"""

import statistics
import time
import timeit

from repro.obs.trace import RequestContext, Span
from repro.ops.journal import DEBUG, EventJournal
from repro.ops.sampler import SamplingProfiler
from repro.service import AnalysisService, ResultCache

from .conftest import emit
from .test_bench_service import _serve, _workload


def _warm_service(**ops_kwargs) -> AnalysisService:
    service = AnalysisService(
        workers=0, cache=ResultCache(maxsize=1024), **ops_kwargs
    )
    _serve(service, _workload())  # populate the cache
    return service


def _off_kwargs():
    return {"journal": None, "track_inflight": False}


def _production_kwargs():
    # the default posture: min_level=info → anomalies only
    return {"journal": EventJournal(maxlen=65536), "track_inflight": True}


def _debug_kwargs():
    return {
        "journal": EventJournal(maxlen=262144, min_level="debug"),
        "track_inflight": True,
    }


def _fastest_quartile(samples: list[float]) -> float:
    """Mean of the fastest quartile — the standard noise-robust
    estimator for 'what does this code cost absent interference'."""
    ordered = sorted(samples)
    keep = max(1, len(ordered) // 4)
    return sum(ordered[:keep]) / keep


def _interleaved_ratios(service_a, service_b, rounds: int = 48) -> dict:
    """Paired pass-time ratios b/a: the services run back-to-back
    within each round (order swapping every round), each round yields
    one tb/ta ratio, and the headline is the median of those paired
    ratios — by far the most drift-resistant estimator we trialled.
    The fastest-quartile ratio is reported alongside as the low-noise
    floor."""
    workloads = [_workload() for _ in range(4)]

    def one_pass(service, workload):
        start = time.perf_counter()
        _serve(service, workload)
        return time.perf_counter() - start

    times_a, times_b, paired = [], [], []
    for round_index in range(rounds):
        workload = workloads[round_index % len(workloads)]
        if round_index % 2 == 0:
            time_a = one_pass(service_a, workload)
            time_b = one_pass(service_b, workload)
        else:
            time_b = one_pass(service_b, workload)
            time_a = one_pass(service_a, workload)
        times_a.append(time_a)
        times_b.append(time_b)
        paired.append(time_b / time_a)
    return {
        "median": statistics.median(paired),
        "fastest_quartile": _fastest_quartile(times_b) / _fastest_quartile(times_a),
    }


def _instrumentation_us_per_request() -> float:
    """The isolated per-request production-posture instrumentation
    sequence (root span create + entry, a queue and a compute phase
    span, the journal level check, and the exit that closes the root),
    timed tightly."""
    journal = EventJournal(maxlen=65536)
    number = 50_000
    seconds = timeit.timeit(
        stmt=(
            'ctx = RequestContext(kind="decompose", deadline=None)\n'
            "ctx.__enter__()\n"
            'Span("queue", start=ctx.start).close()\n'
            'with Span("compute"):\n'
            "    rid = ctx.request_id\n"
            "if journal.min_level <= DEBUG:\n"
            '    journal.emit("service.request_done", DEBUG, request_id=rid)\n'
            "ctx.__exit__(None, None, None)\n"
        ),
        globals={
            "RequestContext": RequestContext,
            "Span": Span,
            "journal": journal,
            "DEBUG": DEBUG,
        },
        number=number,
    )
    return seconds / number * 1e6


def test_warm_instrumentation_off(benchmark):
    service = _warm_service(**_off_kwargs())
    benchmark(_serve, service, _workload())
    assert service.cache.info().hits >= 100


def test_warm_journal_and_context(benchmark):
    service = _warm_service(**_production_kwargs())
    benchmark(_serve, service, _workload())
    # the production posture's contract: contexts flowed (the slow-log
    # machinery and in-flight table were live) but healthy traffic
    # journaled nothing — the ring holds zero per-request events
    assert service.journal.stats()["dropped"] == 0
    assert len(service.journal) == 0
    # the honest headline numbers, measured the low-noise way; the null
    # ratio (off vs an identical second off instance) calibrates the
    # floor of the measurement itself
    ratios = _interleaved_ratios(
        _warm_service(**_off_kwargs()), _warm_service(**_production_kwargs()),
    )
    null = _interleaved_ratios(
        _warm_service(**_off_kwargs()), _warm_service(**_off_kwargs()),
    )
    benchmark.extra_info["interleaved_overhead_ratio"] = round(
        ratios["median"], 4
    )
    benchmark.extra_info["interleaved_overhead_ratio_quartile"] = round(
        ratios["fastest_quartile"], 4
    )
    benchmark.extra_info["interleaved_null_ratio"] = round(null["median"], 4)
    benchmark.extra_info["instrumentation_us_per_request"] = round(
        _instrumentation_us_per_request(), 3
    )


def test_warm_journal_debug_posture(benchmark):
    service = _warm_service(**_debug_kwargs())
    benchmark(_serve, service, _workload())
    # every request journaled its full correlated stream
    done = service.journal.events(name="service.request_done")
    assert len(done) >= 100
    assert service.journal.stats()["dropped"] == 0
    ratios = _interleaved_ratios(
        _warm_service(**_off_kwargs()), _warm_service(**_debug_kwargs()),
    )
    benchmark.extra_info["interleaved_overhead_ratio"] = round(
        ratios["median"], 4
    )
    benchmark.extra_info["interleaved_overhead_ratio_quartile"] = round(
        ratios["fastest_quartile"], 4
    )
    benchmark.extra_info["events_per_request"] = 3


def test_warm_journal_context_and_sampler_50hz(benchmark):
    service = _warm_service(**_production_kwargs())
    profiler = SamplingProfiler(hz=50, journal=None)
    profiler.start()
    try:
        benchmark(_serve, service, _workload())
    finally:
        profiler.stop()
    assert profiler.samples > 0
    benchmark.extra_info["sampler_hz"] = 50
    benchmark.extra_info["sampler_samples"] = profiler.samples
    benchmark.extra_info["sampler_overhead_ratio"] = round(
        profiler.overhead_ratio(), 6
    )


def test_overhead_budget():
    """The budget check, measured interleaved.  Reported honestly;
    enforced leniently (see module docstring)."""
    off = _warm_service(**_off_kwargs())
    production = _warm_service(**_production_kwargs())
    debug = _warm_service(**_debug_kwargs())

    ratio_null = _interleaved_ratios(off, _warm_service(**_off_kwargs()))
    ratio_production = _interleaved_ratios(off, production)
    ratio_debug = _interleaved_ratios(off, debug)

    sampled = _warm_service(**_production_kwargs())
    with SamplingProfiler(hz=50, journal=None) as profiler:
        ratio_sampled = _interleaved_ratios(off, sampled, rounds=24)

    instr_us = _instrumentation_us_per_request()
    emit(
        "ops — observability overhead (warm 100-request workload, paired)",
        f"journal+context {(ratio_production['median'] - 1) * 100:+.1f}%   "
        f"debug posture {(ratio_debug['median'] - 1) * 100:+.1f}%   "
        f"+sampler@50Hz {(ratio_sampled['median'] - 1) * 100:+.1f}%   "
        f"null (off vs off) {(ratio_null['median'] - 1) * 100:+.1f}%   "
        f"instrumentation {instr_us:.2f}us/request   "
        f"sampler self-measured duty {profiler.overhead_ratio():.4%}",
    )
    # the 5% acceptance budget is read off the committed JSON from an
    # idle machine; the CI-proof bars below only catch order-of-
    # magnitude regressions (e.g. an accidental O(n) scan per request)
    assert ratio_production["median"] <= 1.15, ratio_production
    assert ratio_debug["median"] <= 1.50, ratio_debug
    assert ratio_sampled["median"] <= 1.60, ratio_sampled
    # the instrumentation sequence itself must stay in the few-µs class
    assert instr_us <= 15.0, instr_us
