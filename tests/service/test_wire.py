"""The versioned wire schema: round-trips, injectivity, version and
frame discipline (:mod:`repro.service.wire`)."""

import io
import json

import pytest

from repro.buchi import BuchiAutomaton
from repro.lattice import LatticeClosure, boolean_lattice
from repro.ltl import parse, translate
from repro.service import (
    CheckRequest,
    ClassifyRequest,
    DecomposeRequest,
    MonitorRequest,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
    ServiceTimeout,
    WireError,
    WIRE_VERSION,
)
from repro.service.wire import (
    decode_error,
    decode_request,
    decode_result,
    encode_error,
    encode_request,
    encode_result,
    pack_frame,
    read_frame,
)

ALPHABET = frozenset({"a", "b"})


def automaton(text="a & F !a"):
    return translate(parse(text), "ab")


class TestRequestRoundTrip:
    def test_formula_decompose(self):
        request = DecomposeRequest(parse("G (a -> F b)"), alphabet=ALPHABET)
        rebuilt = decode_request(encode_request(request))
        assert rebuilt == request
        assert rebuilt.subject == request.subject

    def test_formula_subject_is_text_not_pickle(self):
        payload = encode_request(
            DecomposeRequest(parse("G a"), alphabet=ALPHABET)
        )
        assert payload["subject"]["t"] == "formula"
        assert json.dumps(payload)  # fully JSON-able, no binary riders

    def test_buchi_structural(self):
        request = DecomposeRequest(automaton())
        payload = encode_request(request)
        assert payload["subject"]["t"] == "buchi"
        rebuilt = decode_request(payload)
        assert isinstance(rebuilt.subject, BuchiAutomaton)
        assert rebuilt.subject.states == request.subject.states
        assert rebuilt.subject.alphabet == request.subject.alphabet
        assert rebuilt.subject.accepting == request.subject.accepting
        assert rebuilt.subject.transitions == request.subject.transitions

    def test_buchi_with_exotic_states_falls_back_to_pickle(self):
        exotic = BuchiAutomaton.build(
            alphabet=["a"],
            states=[frozenset({0}), frozenset({1})],
            initial=frozenset({0}),
            transitions={
                (frozenset({0}), "a"): [frozenset({1})],
                (frozenset({1}), "a"): [frozenset({1})],
            },
            accepting=[frozenset({1})],
        )
        payload = encode_request(DecomposeRequest(exotic))
        assert payload["subject"]["t"] == "pickle"
        rebuilt = decode_request(payload)
        assert rebuilt.subject.states == exotic.states

    def test_lattice_subject_and_closure(self):
        lat = boolean_lattice(2)
        closure = LatticeClosure.from_closed_elements(lat, [frozenset({0})])
        request = DecomposeRequest(frozenset({0}), closure=closure)
        rebuilt = decode_request(encode_request(request))
        assert rebuilt.subject == frozenset({0})
        assert rebuilt.closure.closed_elements() == closure.closed_elements()

    def test_certify_flag_survives(self):
        request = DecomposeRequest(automaton(), certify=True)
        rebuilt = decode_request(encode_request(request))
        assert rebuilt.certify is True
        plain = decode_request(encode_request(DecomposeRequest(automaton())))
        assert plain.certify is False

    def test_classify_with_samples(self):
        request = ClassifyRequest(
            parse("F a"), alphabet=ALPHABET, samples=("x", "y")
        )
        rebuilt = decode_request(encode_request(request))
        assert rebuilt.samples == ("x", "y")

    def test_check_with_witness(self):
        request = CheckRequest(parse("a U b"), alphabet=ALPHABET,
                               witness=("trace", 3))
        rebuilt = decode_request(encode_request(request))
        assert rebuilt.witness == ("trace", 3)

    def test_round_trip_preserves_equality(self):
        request = ClassifyRequest(parse("F a"), alphabet=ALPHABET)
        assert decode_request(encode_request(request)) == request


class TestInjectivity:
    def test_distinct_requests_distinct_encodings(self):
        requests = [
            DecomposeRequest(parse("G a"), alphabet=ALPHABET),
            DecomposeRequest(parse("G a"), alphabet=frozenset({"a"})),
            DecomposeRequest(parse("F a"), alphabet=ALPHABET),
            DecomposeRequest(automaton()),
            DecomposeRequest(automaton(), certify=True),
            ClassifyRequest(parse("G a"), alphabet=ALPHABET),
            CheckRequest(parse("G a"), alphabet=ALPHABET),
        ]
        frames = {pack_frame(encode_request(r)) for r in requests}
        assert len(frames) == len(requests)

    def test_atoms_keep_str_int_apart(self):
        # "1" and 1 as states must not collapse — that is exactly the
        # stable_token discipline the JSON tagging transplants.
        def machine(state):
            return BuchiAutomaton.build(
                alphabet=["a"], states=[state],
                initial=state, transitions={(state, "a"): [state]},
                accepting=[state],
            )

        one_str = encode_request(DecomposeRequest(machine("1")))
        one_int = encode_request(DecomposeRequest(machine(1)))
        assert one_str != one_int
        assert decode_request(one_str).subject.initial == "1"
        assert decode_request(one_int).subject.initial == 1


class TestVersionDiscipline:
    def test_wrong_version_rejected(self):
        payload = encode_request(DecomposeRequest(parse("G a"),
                                                  alphabet=ALPHABET))
        payload["v"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_request(payload)

    def test_missing_version_rejected(self):
        payload = encode_request(DecomposeRequest(parse("G a"),
                                                  alphabet=ALPHABET))
        del payload["v"]
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_request(payload)

    def test_result_version_checked_too(self):
        request = CheckRequest(parse("a U b"), alphabet=ALPHABET)
        payload = encode_result(
            ServiceResult(request, True, False, "k", 0.01)
        )
        payload["v"] = 99
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_result(payload, request)


class TestMalformedPayloads:
    def test_unknown_kind(self):
        payload = encode_request(DecomposeRequest(parse("G a"),
                                                  alphabet=ALPHABET))
        payload["kind"] = "transmogrify"
        with pytest.raises(WireError, match="unknown request kind"):
            decode_request(payload)

    def test_unknown_subject_tag(self):
        payload = encode_request(DecomposeRequest(parse("G a"),
                                                  alphabet=ALPHABET))
        payload["subject"] = {"t": "carrier-pigeon"}
        with pytest.raises(WireError, match="unknown subject tag"):
            decode_request(payload)

    def test_unparseable_formula_text(self):
        payload = encode_request(DecomposeRequest(parse("G a"),
                                                  alphabet=ALPHABET))
        payload["subject"] = {"t": "formula", "text": "G ("}
        with pytest.raises(WireError, match="cannot parse formula"):
            decode_request(payload)

    def test_non_dict_payload(self):
        with pytest.raises(WireError):
            decode_request(["not", "a", "frame"])

    def test_encode_non_request(self):
        with pytest.raises(WireError, match="takes a Request"):
            encode_request({"kind": "decompose"})

    @pytest.mark.parametrize("atom", [
        ["s", 5], ["i", "5"], ["i", True], ["s", None], ["i", "x"],
    ])
    def test_mistyped_trace_atoms_rejected(self, atom):
        """An atom's tag fixes its value's type: a mistyped atom is a
        malformed payload, not a value that happens to convert."""
        payload = encode_request(
            MonitorRequest(parse("G a"), alphabet=ALPHABET, events=("a",))
        )
        payload["events"] = {"t": "trace", "events": [["s", "a"], atom]}
        with pytest.raises(WireError, match="malformed atom"):
            decode_request(payload)

    def test_valid_trace_atoms_round_trip(self):
        request = MonitorRequest(parse("G a"), alphabet=ALPHABET,
                                 events=("a", 5, "5", 0, -3, "b"))
        payload = encode_request(request)
        assert payload["events"]["t"] == "trace"
        assert decode_request(payload).events == request.events


class TestResults:
    def test_result_round_trip_reattaches_request(self):
        request = CheckRequest(parse("a U b"), alphabet=ALPHABET)
        result = ServiceResult(request, True, True, "check:ltl:abc", 0.125)
        rebuilt = decode_result(encode_result(result), request)
        assert rebuilt.request is request
        assert rebuilt.value is True
        assert rebuilt.cached is True
        assert rebuilt.key == "check:ltl:abc"
        assert rebuilt.elapsed_seconds == 0.125

    def test_object_values_ride_pickle(self):
        request = DecomposeRequest(automaton())
        from repro.analysis import decompose

        value = decompose(request.subject)
        rebuilt = decode_result(
            encode_result(ServiceResult(request, value, False, "k", 0.5)),
            request,
        )
        assert rebuilt.value.verify_exact()

    def test_none_value_stays_none_not_missing(self):
        request = ClassifyRequest(parse("F a"), alphabet=ALPHABET)
        rebuilt = decode_result(
            encode_result(ServiceResult(request, None, True, "k", 0.0)),
            request,
        )
        assert rebuilt.value is None


class TestErrors:
    @pytest.mark.parametrize("exc_type", [
        ServiceError, ServiceOverloaded, ServiceTimeout, ServiceClosed,
        WireError, TypeError, ValueError,
    ])
    def test_known_errors_round_trip_as_themselves(self, exc_type):
        rebuilt = decode_error(encode_error(exc_type("boom")))
        assert type(rebuilt) is exc_type
        assert "boom" in str(rebuilt)

    @pytest.mark.parametrize("error", [
        KeyError("k"), ValueError("bad value"), ServiceTimeout("too slow"),
    ])
    def test_message_survives_crossings_unchanged(self, error):
        """``str(KeyError("k"))`` is ``"'k'"``: the message must not gain
        a layer of quotes on each crossing."""
        once = decode_error(encode_error(error))
        assert type(once) is type(error)
        assert str(once) == str(error)
        assert str(decode_error(encode_error(once))) == str(error)

    def test_unknown_error_degrades_to_service_error(self):
        class Bespoke(RuntimeError):
            pass

        rebuilt = decode_error(encode_error(Bespoke("ouch")))
        assert type(rebuilt) is ServiceError
        assert "Bespoke" in str(rebuilt)
        assert "ouch" in str(rebuilt)


class TestFrames:
    def test_pack_read_round_trip(self):
        payload = {"id": "r1", "op": "request", "v": WIRE_VERSION}
        stream = io.BytesIO(pack_frame(payload) + pack_frame({"id": "r2"}))
        assert read_frame(stream) == payload
        assert read_frame(stream) == {"id": "r2"}
        assert read_frame(stream) is None  # clean EOF

    def test_short_reads_are_reassembled(self):
        class DribbleStream:
            """Returns one byte per read — the pipe worst case."""

            def __init__(self, data):
                self._data = data
                self._pos = 0

            def read(self, n):
                if self._pos >= len(self._data):
                    return b""
                chunk = self._data[self._pos:self._pos + 1]
                self._pos += 1
                return chunk

        payload = {"id": "r1", "nested": {"t": "json", "v": [1, 2, 3]}}
        assert read_frame(DribbleStream(pack_frame(payload))) == payload

    def test_truncated_mid_frame_raises(self):
        frame = pack_frame({"id": "r1", "data": "x" * 100})
        with pytest.raises(WireError, match="mid-frame|header and body"):
            stream = io.BytesIO(frame[: len(frame) // 2])
            read_frame(stream)

    def test_oversized_length_prefix_rejected_before_allocation(self):
        huge = (2**32 - 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="exceeds"):
            read_frame(io.BytesIO(huge))

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2]).encode()
        stream = io.BytesIO(len(body).to_bytes(4, "big") + body)
        with pytest.raises(WireError, match="JSON object"):
            read_frame(stream)

    def test_garbage_body_rejected(self):
        body = b"\xff\xfenot json"
        stream = io.BytesIO(len(body).to_bytes(4, "big") + body)
        with pytest.raises(WireError, match="malformed frame body"):
            read_frame(stream)
