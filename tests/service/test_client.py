"""The transport-agnostic client facade (:mod:`repro.service.client`):
typed replies and transport ownership."""

import pytest

from repro.analysis import PropertyClass
from repro.ltl import parse, translate
from repro.service import (
    AnalysisService,
    CheckReply,
    ClassifyReply,
    Client,
    DecomposeReply,
    DecomposeRequest,
    InProcessTransport,
    ServiceClosed,
)

ALPHABET = frozenset({"a", "b"})


def automaton(text="a & F !a"):
    return translate(parse(text), "ab")


@pytest.fixture
def client():
    with Client.in_process(workers=2, max_pending=32) as c:
        yield c


class TestVerbs:
    def test_decompose_returns_typed_reply(self, client):
        reply = client.decompose(automaton())
        assert isinstance(reply, DecomposeReply)
        assert reply.safety is reply.value.safety
        assert reply.liveness is reply.value.liveness
        assert reply.certificate is None
        assert reply.cached is False
        assert reply.key.startswith("decompose:")
        assert reply.elapsed_seconds >= 0.0
        assert reply.request_id  # the trace id is on the reply

    def test_decompose_certify_carries_certificate(self, client):
        reply = client.decompose(automaton(), certify=True)
        assert reply.certificate is not None

    def test_classify_typed_reply(self, client):
        reply = client.classify(parse("F a"), alphabet=ALPHABET)
        assert isinstance(reply, ClassifyReply)
        assert reply.property_class is PropertyClass.LIVENESS
        assert reply.is_liveness and not reply.is_safety
        safe = client.classify(parse("G a"), alphabet=ALPHABET)
        assert safe.is_safety and not safe.is_liveness

    def test_check_reply_is_truthy(self, client):
        reply = client.check(parse("a U b"), alphabet=ALPHABET)
        assert isinstance(reply, CheckReply)
        assert reply.holds is True
        assert bool(reply) is True

    def test_repeat_decompose_hits_cache(self, client):
        subject = automaton()
        assert client.decompose(subject).cached is False
        assert client.decompose(subject).cached is True

    def test_submit_escape_hatch_returns_pending(self, client):
        pending = client.submit(DecomposeRequest(automaton()))
        result = pending.result(timeout=30.0)
        assert result.value.verify_exact()


class TestTransportOwnership:
    def test_owned_service_closed_with_client(self):
        client = Client.in_process(workers=1)
        service = client.transport.service
        client.close()
        assert service.closed

    def test_borrowed_service_left_running(self):
        with AnalysisService(workers=1) as service:
            client = Client(InProcessTransport(service))
            client.decompose(automaton())
            client.close()
            assert not service.closed  # borrowed, not owned

    def test_borrowed_plus_kwargs_rejected(self):
        with AnalysisService(workers=1) as service:
            with pytest.raises(TypeError, match="not both"):
                InProcessTransport(service, workers=2)

    def test_closed_client_raises_service_closed(self):
        client = Client.in_process(workers=1)
        client.close()
        with pytest.raises(ServiceClosed):
            client.decompose(automaton())


class TestOperations:
    def test_warm_start_populates_cache(self, client):
        workload = (
            '{"version": 1, "requests": ['
            '{"kind": "decompose", "formula": "G a", "alphabet": ["a", "b"]}'
            "]}"
        )
        assert client.warm_start(workload) == 1
        reply = client.decompose(parse("G a"), alphabet=ALPHABET)
        assert reply.cached is True

    def test_readiness_passthrough(self, client):
        state = client.readiness()
        assert state["ready"] is True

    def test_snapshot_passthrough(self, client):
        snap = client.snapshot()
        assert isinstance(snap, dict) and snap
