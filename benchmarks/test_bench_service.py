"""Analysis-service throughput — the cold vs warm payoff of canonical
cache keys (DESIGN.md §8), driven through the :class:`Client` facade.

A repeated 100-request workload (decompose/classify/check over a small
formula family, *with every subject freshly re-parsed and automata
freshly re-translated and renumbered* — so nothing is cached by object
identity, only up to isomorphism) is served twice: cold on an empty
cache, then warm — on an inline (``workers=0``) client and on a default
pooled one, whose warm pass must never start its worker pool.  The
acceptance number — warm beats cold by ≥ 10× — is *reported* here into
``BENCH_service.json``; the CI-enforced bar is deliberately lower (≥ 3×
plus an exact all-hits cache check), so a loaded shared runner cannot
flake a correct build on wall-clock noise.
"""

import pytest

from repro.ltl import parse, translate
from repro.service import (
    CheckRequest,
    ClassifyRequest,
    Client,
    DecomposeRequest,
    ResultCache,
)

from .conftest import emit

FORMULAS = ["G a", "F b", "a U b", "GF a", "G (a -> X b)",
            "FG a", "a W b", "F (a & b)", "a & F !a", "G (a | b)"]
ALPHABET = frozenset({"a", "b"})


def _workload():
    """100 requests: 10 formulas × (decompose + classify + check) plus a
    renumbered-automaton decompose per formula — every subject is a
    fresh object, so hits prove canonical keys, not object identity."""
    requests = []
    for index, text in enumerate(FORMULAS):
        formula = parse(text)
        automaton = translate(formula, "ab").renumbered(f"w{index}")
        requests.extend([
            DecomposeRequest(formula, alphabet=ALPHABET),
            ClassifyRequest(formula, alphabet=ALPHABET),
            CheckRequest(formula, alphabet=ALPHABET),
            DecomposeRequest(automaton),
        ])
        # a second, differently-renumbered copy: isomorphic, must hit
        requests.append(
            DecomposeRequest(translate(formula, "ab").renumbered(f"v{index}"))
        )
    requests.extend(requests[:100 - len(requests)] if len(requests) < 100 else [])
    return requests[:100]


def _serve(client, requests):
    for request in requests:
        client.submit(request).result()


def test_cold_service(benchmark):
    def setup():
        return (Client.in_process(workers=0, cache=ResultCache()),
                _workload()), {}

    benchmark.pedantic(_serve, setup=setup, rounds=5, iterations=1)


def test_warm_service(benchmark):
    client = Client.in_process(workers=0, cache=ResultCache(maxsize=1024))
    requests = _workload()
    _serve(client, requests)  # populate
    benchmark(_serve, client, _workload())  # fresh objects, warm cache
    info = client.transport.service.cache.info()
    assert info.hits > info.misses


def test_warm_service_pooled(benchmark):
    """The warm pass on a default (4-worker) in-process client, over a
    cache a ``workers=0`` client warmed.  Hits are served on the
    submitting thread, so an all-hit pass never starts the worker pool;
    the assertion fails if a pool handoff comes back onto the hit path."""
    cache = ResultCache(maxsize=1024)
    with Client.in_process(workers=0, cache=cache) as warm:
        _serve(warm, _workload())
    before = cache.info()
    with Client.in_process(cache=cache) as client:
        benchmark(_serve, client, _workload())
        assert client.transport.service.pool.started is False
    info = cache.info()
    assert info.hits > before.hits
    assert info.misses == before.misses


def test_certified_decompose_warm(benchmark):
    """A ``certify=True`` decompose served warm, with the certificate
    payload priced: ``extra_info.cert_payload_bytes`` records what the
    ``decompose+cert:`` cache line carries beyond the bare answer."""
    client = Client.in_process(workers=0, cache=ResultCache(maxsize=1024))
    formula = parse("G (a -> X b)")
    first = client.decompose(formula, alphabet=ALPHABET, certify=True)
    certificate = first.certificate
    assert certificate is not None

    reply = benchmark(client.decompose, formula, alphabet=ALPHABET,
                      certify=True)
    assert reply.cached is True
    payload_bytes = len(certificate.to_json().encode("utf-8"))
    benchmark.extra_info["cert_payload_bytes"] = payload_bytes
    emit(
        "service — certified decompose (warm)",
        f"key={first.key.split(':', 1)[0]}  "
        f"certificate payload={payload_bytes} bytes",
    )


def test_warm_beats_cold():
    """One workload served cold, then the same shape of workload —
    all-new subject objects — served warm.  The measured multiple is the
    reported benchmark metric (≥ 10× on an idle machine); what CI
    *enforces* is timing-robust: the warm pass must be answered entirely
    from cache, plus a conservative 3× wall-clock floor."""
    import time

    client = Client.in_process(workers=0, cache=ResultCache(maxsize=1024))
    cache = client.transport.service.cache
    cold_requests = _workload()
    t0 = time.perf_counter()
    _serve(client, cold_requests)
    cold = time.perf_counter() - t0

    before = cache.info()
    warm_requests = _workload()
    t0 = time.perf_counter()
    _serve(client, warm_requests)
    warm = time.perf_counter() - t0

    info = cache.info()
    speedup = cold / warm if warm > 0 else float("inf")
    emit(
        "service — cold vs warm (100-request workload)",
        f"cold={cold * 1e3:.1f}ms  warm={warm * 1e3:.1f}ms  "
        f"speedup={speedup:.1f}x  hits={info.hits}  misses={info.misses}",
    )
    # Every warm request is a fresh object, so these hits prove the
    # canonical keys, not object identity.
    assert info.hits - before.hits == len(warm_requests)
    assert info.misses == before.misses
    assert speedup >= 3.0, (cold, warm)
