"""The versioned wire schema: requests and replies as length-prefixed
JSON frames.

The sharded tier (:mod:`repro.service.sharded`) moves requests between
processes, so the in-process request/reply objects need an explicit,
*versioned* serialization.  Every request and result payload is a JSON
object carrying ``"v": WIRE_VERSION``; a peer that receives a version it
does not speak rejects the payload with :class:`WireError` instead of
guessing.  The envelope around a payload (``id``, ``op``, ``origin``,
``trace_id``, ``timeout``, ``key``) is read field by field with
``.get``.  Schema evolution is additive — an optional field whose
absence means the old behaviour, or a new union arm old peers reject as
unknown — or else an explicit version bump plus a documented migration,
never a silent reinterpretation (DESIGN.md §13 states the rules).

A request frame's envelope carries the router's cache key when it has
one.  A shard then wraps the payload in a :class:`RequestFrame`, which
checks the version and the kind and decodes the rest only if the
request must be computed: a cache hit trusts the router's key, the
trust the ``pickle`` arm below already grants the router, and a miss
rebuilds the key from the decoded subject and fails with
:class:`WireError` when the two disagree.

Injectivity follows the :func:`repro.canonical.stable_token` discipline,
transplanted to JSON: every payload is a *tagged* object (``{"t": ...}``
unions, never bare strings concatenated with separators) and every frame
is length-prefixed (a 4-byte big-endian size, netstring-style), so no
payload can forge another payload's encoding and no frame boundary can
be confused by content bytes.  Two distinct requests never share an
encoding; two distinct frames never share a byte stream.

Subject encodings are a tagged union, most-portable first:

* ``formula`` — LTL formulas serialize to their parseable text
  (``str(formula)`` round-trips through :func:`repro.ltl.parser.parse`);
* ``buchi`` — Büchi automata whose states and symbols are all
  ``str``/``int`` serialize structurally (alphabet, states, initial,
  accepting, full transition relation);
* ``pickle`` — everything else (lattice elements and closures, Rabin
  tree automata, sample trees, witnesses, reply values) rides as a
  base64 pickle.  Büchi automata pickle their dataclass fields only —
  never a memo such as the dense form — so a value's pickle is a
  function of the value, whatever has been computed on it since; that is
  what lets a shard encode a cached reply value once per cache line
  (:meth:`repro.service.cache.ResultCache.encoded`) and serve every
  later hit from those bytes.  This is the same trust model as
  :mod:`multiprocessing`: frames are only ever exchanged between a
  router and worker processes *it spawned itself from the same
  codebase* — the wire is an internal process boundary, not a public
  network protocol, and must never be fed frames from an untrusted
  peer.
"""

from __future__ import annotations

import base64
import json
import pickle
import struct

from repro.buchi.automaton import BuchiAutomaton
from repro.ltl.parser import parse as _parse_formula
from repro.ltl.syntax import Formula
from types import MappingProxyType

from .requests import (
    CheckRequest,
    ClassifyRequest,
    DecomposeRequest,
    MonitorRequest,
    Request,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
    ServiceTimeout,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "RequestFrame",
    "WIRE_VERSION",
    "WireError",
    "decode_error",
    "decode_request",
    "decode_result",
    "encode_error",
    "encode_request",
    "encode_result",
    "encode_value",
    "pack_frame",
    "read_frame",
]

#: The one schema version this codebase speaks.  Bump on any change that
#: is not additive and keep a decoder for the old version for one
#: release (DESIGN.md §13's versioning rules).
WIRE_VERSION = 1

#: Frame size guard: a corrupted length prefix must not allocate
#: gigabytes before the JSON parser ever sees a byte.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class WireError(ServiceError):
    """A frame or payload could not be encoded or decoded."""


# -- tagged atoms ------------------------------------------------------------


def _pickled(obj) -> dict:
    try:
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise WireError(
            f"cannot serialize {type(obj).__name__!r} for the wire: {exc}"
        ) from exc
    return {"t": "pickle", "b64": base64.b64encode(blob).decode("ascii")}


def _unpickled(payload: dict):
    try:
        return pickle.loads(base64.b64decode(payload["b64"]))
    except Exception as exc:
        raise WireError(f"cannot deserialize pickle payload: {exc}") from exc


def _encode_atom(value) -> list | None:
    """``str``/``int`` atoms as tagged pairs; ``None`` = not encodable."""
    if isinstance(value, bool):  # bool is an int; keep the tag honest
        return None
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, int):
        return ["i", value]
    return None


def _decode_atom(pair):
    """The inverse of :func:`_encode_atom`: an ``"s"`` atom must hold a
    ``str`` and an ``"i"`` atom a non-``bool`` ``int``, so each value has
    exactly one encoding."""
    if isinstance(pair, list) and len(pair) == 2:
        tag, value = pair
        if tag == "s" and isinstance(value, str):
            return value
        if tag == "i" and isinstance(value, int) and not isinstance(value, bool):
            return value
    raise WireError(f"malformed atom {pair!r}")


def _atom_sort_key(pair: list) -> str:
    return json.dumps(pair, separators=(",", ":"))


# -- subjects ----------------------------------------------------------------


def _encode_buchi(automaton: BuchiAutomaton) -> dict | None:
    """Structural encoding, or ``None`` when states/symbols are not
    plain ``str``/``int`` atoms (the pickle fallback takes over)."""
    atoms = {}
    for value in list(automaton.states) + list(automaton.alphabet):
        encoded = _encode_atom(value)
        if encoded is None:
            return None
        atoms[value] = encoded
    transitions = [
        [atoms[q], atoms[a], sorted((atoms[t] for t in targets),
                                    key=_atom_sort_key)]
        for (q, a), targets in automaton.transitions.items()
    ]
    transitions.sort(key=lambda row: (_atom_sort_key(row[0]),
                                      _atom_sort_key(row[1])))
    return {
        "t": "buchi",
        "name": automaton.name,
        "alphabet": sorted(
            (atoms[a] for a in automaton.alphabet), key=_atom_sort_key
        ),
        "states": sorted(
            (atoms[q] for q in automaton.states), key=_atom_sort_key
        ),
        "initial": atoms[automaton.initial],
        "accepting": sorted(
            (atoms[q] for q in automaton.accepting), key=_atom_sort_key
        ),
        "transitions": transitions,
    }


def _decode_buchi(payload: dict) -> BuchiAutomaton:
    try:
        return BuchiAutomaton.build(
            alphabet=[_decode_atom(a) for a in payload["alphabet"]],
            states=[_decode_atom(q) for q in payload["states"]],
            initial=_decode_atom(payload["initial"]),
            transitions={
                (_decode_atom(q), _decode_atom(a)):
                    [_decode_atom(t) for t in targets]
                for q, a, targets in payload["transitions"]
            },
            accepting=[_decode_atom(q) for q in payload["accepting"]],
            name=payload.get("name", "B"),
        )
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"malformed buchi payload: {exc}") from exc


def _encode_subject(subject) -> dict:
    if isinstance(subject, Formula):
        return {"t": "formula", "text": str(subject)}
    if isinstance(subject, BuchiAutomaton):
        structural = _encode_buchi(subject)
        if structural is not None:
            return structural
    return _pickled(subject)


def _decode_subject(payload: dict):
    tag = payload.get("t") if isinstance(payload, dict) else None
    if tag == "formula":
        try:
            return _parse_formula(payload["text"])
        except Exception as exc:
            raise WireError(
                f"cannot parse formula payload {payload.get('text')!r}: {exc}"
            ) from exc
    if tag == "buchi":
        return _decode_buchi(payload)
    if tag == "pickle":
        return _unpickled(payload)
    raise WireError(f"unknown subject tag {tag!r}")


# -- requests ----------------------------------------------------------------

#: Adding a union arm (the ``monitor`` kind, PR 10) is *not* a version
#: bump: old peers reject unknown kinds with :class:`WireError` either
#: way, and every previously-valid payload decodes unchanged
#: (DESIGN.md §13's additive-evolution rule).
_REQUEST_OF = MappingProxyType({
    "decompose": DecomposeRequest,
    "classify": ClassifyRequest,
    "check": CheckRequest,
    "monitor": MonitorRequest,
})


def _require_version(payload) -> dict:
    if not isinstance(payload, dict):
        raise WireError(f"wire payload must be an object, got {type(payload).__name__}")
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (this peer speaks "
            f"{WIRE_VERSION})"
        )
    return payload


def encode_request(request: Request) -> dict:
    """One request as a versioned, injectively-tagged JSON object.

    Subclasses of the three canonical request classes flatten to their
    canonical kind: the wire carries *what to analyze*, not the caller's
    type hierarchy."""
    if not isinstance(request, Request):
        raise WireError(
            f"encode_request() takes a Request, not {type(request).__name__!r}"
        )
    kind = request.kind
    if kind not in _REQUEST_OF:
        raise WireError(f"unknown request kind {kind!r}")
    payload: dict = {
        "v": WIRE_VERSION,
        "kind": kind,
        "subject": _encode_subject(request.subject),
    }
    if request.alphabet is not None:
        symbols = list(request.alphabet)
        if all(isinstance(s, str) for s in symbols):
            payload["alphabet"] = {"t": "symbols", "symbols": sorted(symbols)}
        else:
            payload["alphabet"] = _pickled(frozenset(symbols))
    if request.closure is not None:
        payload["closure"] = _pickled(request.closure)
    if isinstance(request, DecomposeRequest) and request.certify:
        payload["certify"] = True
    if isinstance(request, ClassifyRequest) and request.samples:
        payload["samples"] = _pickled(tuple(request.samples))
    if isinstance(request, CheckRequest) and request.witness is not None:
        payload["witness"] = _pickled(request.witness)
    if isinstance(request, MonitorRequest):
        if request.events:
            payload["events"] = _encode_trace(tuple(request.events))
        if request.horizon is not None:
            payload["horizon"] = int(request.horizon)
    return payload


def _decode_alphabet(payload: dict):
    if payload.get("t") == "symbols":
        return frozenset(payload["symbols"])
    if payload.get("t") == "pickle":
        return _unpickled(payload)
    raise WireError(f"unknown alphabet tag {payload.get('t')!r}")


def _encode_trace(events: tuple) -> dict:
    """An *ordered* event sequence (unlike alphabets, traces must not be
    sorted or deduplicated): tagged atoms when every event is one, else
    the pickle fallback."""
    atoms = [_encode_atom(e) for e in events]
    if all(encoded is not None for encoded in atoms):
        return {"t": "trace", "events": atoms}
    return _pickled(events)


def _decode_trace(payload: dict) -> tuple:
    if payload.get("t") == "trace":
        return tuple(_decode_atom(e) for e in payload["events"])
    if payload.get("t") == "pickle":
        return tuple(_unpickled(payload))
    raise WireError(f"unknown trace tag {payload.get('t')!r}")


def _request_type(payload) -> type:
    """The request class a payload names, once its version and kind are
    checked — nothing else is decoded."""
    _require_version(payload)
    kind = payload.get("kind")
    request_type = _REQUEST_OF.get(kind)
    if request_type is None:
        raise WireError(f"unknown request kind {kind!r}")
    if "subject" not in payload:
        raise WireError("request payload has no subject")
    return request_type


def decode_request(payload: dict) -> Request:
    """The inverse of :func:`encode_request` (canonical classes only)."""
    return _decode_fields(_request_type(payload), payload)


def _decode_fields(request_type: type, payload: dict) -> Request:
    kwargs: dict = {"subject": _decode_subject(payload["subject"])}
    if "alphabet" in payload:
        kwargs["alphabet"] = _decode_alphabet(payload["alphabet"])
    if "closure" in payload:
        kwargs["closure"] = _unpickled(payload["closure"])
    if request_type is DecomposeRequest and payload.get("certify"):
        kwargs["certify"] = True
    if request_type is ClassifyRequest and "samples" in payload:
        kwargs["samples"] = tuple(_unpickled(payload["samples"]))
    if request_type is CheckRequest and "witness" in payload:
        kwargs["witness"] = _unpickled(payload["witness"])
    if request_type is MonitorRequest:
        if "events" in payload:
            kwargs["events"] = _decode_trace(payload["events"])
        if "horizon" in payload:
            kwargs["horizon"] = int(payload["horizon"])
    return request_type(**kwargs)


class RequestFrame:
    """A request payload checked for version and kind, with the cache
    key its router built; the subject and the rest of the request are
    decoded only by :meth:`decode`.

    A shard submits one of these for a frame that carries a ``key``, so
    :meth:`~repro.service.server.AnalysisService.submit` serves a cache
    hit from the key alone and decodes only when it must compute
    (DESIGN.md §13, "The frame's key")."""

    __slots__ = ("kind", "key", "_type", "_payload")

    def __init__(self, payload: dict, key: str):
        if not isinstance(key, str):
            raise WireError(f"frame key must be a string, not {key!r}")
        self._type = _request_type(payload)
        self.kind = payload["kind"]
        self.key = key
        self._payload = payload

    def decode(self) -> Request:
        """The request the payload encodes."""
        return _decode_fields(self._type, self._payload)


# -- results and errors ------------------------------------------------------


def encode_value(value) -> dict:
    """A reply value's tagged payload: JSON scalars as themselves,
    anything else through the pickle arm."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"t": "json", "v": value}
    return _pickled(value)


def _decode_value(payload: dict):
    tag = payload.get("t") if isinstance(payload, dict) else None
    if tag == "json":
        return payload.get("v")
    if tag == "pickle":
        return _unpickled(payload)
    raise WireError(f"unknown value tag {tag!r}")


def encode_result(result: ServiceResult, *, value: dict | None = None) -> dict:
    """A reply's serving metadata plus its value.  The request itself is
    *not* echoed — the requesting side re-attaches its own object, so an
    in-process caller keeps identity (``reply.request is request``).
    ``value`` is ``encode_value(result.value)`` when the caller already
    holds it (a shard keeps it on the value's cache line)."""
    return {
        "v": WIRE_VERSION,
        "value": encode_value(result.value) if value is None else value,
        "cached": bool(result.cached),
        "key": result.key,
        "elapsed_seconds": result.elapsed_seconds,
    }


def decode_result(payload: dict, request: Request) -> ServiceResult:
    _require_version(payload)
    return ServiceResult(
        request=request,
        value=_decode_value(payload["value"]),
        cached=bool(payload["cached"]),
        key=payload["key"],
        elapsed_seconds=float(payload["elapsed_seconds"]),
    )


#: Failure modes that cross the wire as themselves.  Anything else
#: arrives as a :class:`ServiceError` carrying the original type name —
#: a worker's stack never replays in the router.
_ERRORS_BY_NAME = MappingProxyType({
    "ServiceError": ServiceError,
    "ServiceOverloaded": ServiceOverloaded,
    "ServiceTimeout": ServiceTimeout,
    "ServiceClosed": ServiceClosed,
    "WireError": WireError,
    "TypeError": TypeError,
    "ValueError": ValueError,
    "KeyError": KeyError,
})


def encode_error(exc: BaseException) -> dict:
    # A lone string argument travels as itself: ``str(KeyError("k"))`` is
    # ``"'k'"``, which the rebuilt KeyError would quote once more.
    args = exc.args
    message = args[0] if len(args) == 1 and isinstance(args[0], str) else str(exc)
    return {"type": type(exc).__name__, "message": message}


def decode_error(payload: dict) -> BaseException:
    name = payload.get("type", "ServiceError")
    message = payload.get("message", "")
    exc_type = _ERRORS_BY_NAME.get(name)
    if exc_type is None:
        return ServiceError(f"{name}: {message}")
    return exc_type(message)


# -- frames ------------------------------------------------------------------


def pack_frame(payload: dict) -> bytes:
    """``len(body)`` big-endian + the canonical-JSON body."""
    body = json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def _read_exact(stream, count: int) -> bytes | None:
    """Read exactly ``count`` bytes from a (possibly pipe-backed) binary
    stream; ``None`` on clean EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                raise WireError(
                    f"stream closed mid-frame ({count - remaining} of "
                    f"{count} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream) -> dict | None:
    """One frame from a blocking binary stream; ``None`` on clean EOF."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _read_exact(stream, length)
    if body is None:
        raise WireError("stream closed between frame header and body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise WireError(f"malformed frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError("frame body must be a JSON object")
    return payload
