"""One shard: an :class:`AnalysisService` speaking the wire protocol.

``python -m repro.service.sharded.worker`` runs today's in-process
service — worker pool, isomorphism-aware result cache, certificate
verify-on-hit — behind length-prefixed JSON frames on stdin/stdout
(:mod:`repro.service.wire`).  The router speaks to it in two planes:

* ``request`` frames carry analysis work.  The worker admits them
  through :meth:`AnalysisService.submit` (so admission control,
  deadlines, metrics, spans and the request context all apply
  unchanged) and streams each reply frame from a completion callback —
  requests multiplex freely over the one pipe, replies return in
  completion order, matched by id.  A cache hit completes inside
  ``submit()``, so the dispatch loop queues its reply frame itself
  before reading the next one; only misses and certificate replays
  complete on the service's worker pool.  A frame that carries its
  router's cache key is submitted as a
  :class:`~repro.service.wire.RequestFrame`: a hit is served from that
  key without decoding the subject or building a key, and a miss
  decodes the request and checks the key (DESIGN.md §13).  A reply's
  value is encoded once per cache line
  (:meth:`~repro.service.cache.ResultCache.encoded`), so every later hit
  reuses those bytes.  The router's trace id rides in as
  ``request_id``, so the shard-side in-flight table, slow-log and
  journal show the *same* id the client holds.
* control frames (``ping``/``readyz``/``cache_stats``/``inflight``/
  ``slowlog``/``snapshot``/``warm_start``/``shutdown``) serve the
  routing contract and the ops plane.

Frame writing is single-writer by construction: completion callbacks
and the dispatch loop enqueue encoded frames on a queue drained by one
writer thread, so frames never interleave and no lock is ever held
across a pipe write.

The process moves the frame channel off fd 1 at startup (``stdout`` is
re-pointed at ``stderr``), so a stray ``print`` anywhere in the
analysis code cannot corrupt the frame stream.
"""

from __future__ import annotations

import argparse
import os
import queue
import sys
import threading

from repro.service.cache import ResultCache
from repro.service.server import AnalysisService, PendingReply
from repro.service.warmup import parse_workload, replay_workload
from repro.service.wire import (
    RequestFrame,
    WireError,
    decode_request,
    encode_error,
    encode_result,
    encode_value,
    pack_frame,
    read_frame,
)

__all__ = ["ShardWorker", "main"]


class ShardWorker:
    """The frame dispatcher around one :class:`AnalysisService`.

    Takes binary ``inp``/``out`` streams so tests can drive the whole
    protocol in-process over pipes; :func:`main` wires real stdio.
    ``chaos_exit_after`` is a failure-injection hook for the shard-death
    chaos tests: after that many completed requests the process dies
    hard (``os._exit``) *without* sending the pending reply — exactly
    the mid-flight crash the router must survive."""

    def __init__(self, service: AnalysisService, inp, out, *,
                 shard_index: int = 0, chaos_exit_after: int | None = None):
        self.service = service
        self.shard_index = shard_index
        self._inp = inp
        self._out = out
        self._outq: queue.SimpleQueue = queue.SimpleQueue()
        self._chaos_lock = threading.Lock()
        self._chaos_remaining = chaos_exit_after

    # -- the write side ------------------------------------------------------

    def _writer(self) -> None:
        while True:
            frame = self._outq.get()
            if frame is None:
                return
            try:
                self._out.write(frame)
                self._out.flush()
            except (BrokenPipeError, ValueError, OSError):
                return  # router is gone; the read side will see EOF too

    def _send(self, payload: dict) -> None:
        self._outq.put(pack_frame(payload))

    # -- request completion --------------------------------------------------

    def _chaos_tick(self) -> bool:
        """True when failure injection says: die now, reply unsent."""
        with self._chaos_lock:
            if self._chaos_remaining is None:
                return False
            self._chaos_remaining -= 1
            return self._chaos_remaining <= 0

    def _finish(self, frame_id, reply: PendingReply) -> None:
        """Completion callback: one reply frame per finished request."""
        try:
            result = reply.result()
        except BaseException as exc:  # noqa: BLE001 — every failure crosses the wire typed
            self._send({"id": frame_id, "ok": False,
                        "error": encode_error(exc)})
            return
        if self._chaos_tick():
            os._exit(1)
        try:
            # a cached value is encoded once per cache line; the serving
            # metadata is built per reply
            value = self.service.cache.encoded(result.key, result.value,
                                               encode_value)
            self._send({"id": frame_id, "ok": True,
                        "result": encode_result(result, value=value)})
        except WireError as exc:
            self._send({"id": frame_id, "ok": False,
                        "error": encode_error(exc)})

    # -- dispatch ------------------------------------------------------------

    def _handle_request(self, frame_id, payload: dict) -> None:
        # A frame carrying its router's cache key is submitted undecoded
        # (version and kind checked): a hit is served from the key, and
        # the service decodes the request only to compute it.
        key = payload.get("key")
        request = (decode_request(payload["request"]) if key is None
                   else RequestFrame(payload["request"], key))
        reply = self.service.submit(
            request,
            timeout=payload.get("timeout"),
            origin=payload.get("origin", "shard"),
            request_id=payload.get("trace_id"),
        )
        reply.add_done_callback(
            lambda finished: self._finish(frame_id, finished)
        )

    def _control_value(self, op: str, payload: dict):
        service = self.service
        if op == "ping":
            return {"pid": os.getpid(), "shard": self.shard_index}
        if op == "readyz":
            state = service.readiness()
            state["pid"] = os.getpid()
            state["shard"] = self.shard_index
            return state
        if op == "cache_stats":
            return {"stats": service.cache.stats().to_dict(),
                    "lines": service.cache.lines()}
        if op == "inflight":
            return service.inflight()
        if op == "slowlog":
            return service.slow_log()
        if op == "snapshot":
            return service.snapshot()
        if op == "warm_start":
            requests = parse_workload(payload["workload"])
            return replay_workload(service, requests)
        raise WireError(f"unknown op {op!r}")

    def _dispatch(self, payload: dict) -> bool:
        """Handle one frame; returns False when the loop should stop."""
        frame_id = payload.get("id")
        op = payload.get("op")
        try:
            if op == "request":
                self._handle_request(frame_id, payload)
                return True
            if op == "shutdown":
                self._send({"id": frame_id, "ok": True, "value": "bye"})
                return False
            value = self._control_value(op, payload)
        except BaseException as exc:  # noqa: BLE001 — every failure crosses the wire typed
            self._send({"id": frame_id, "ok": False,
                        "error": encode_error(exc)})
            return True
        self._send({"id": frame_id, "ok": True, "value": value})
        return True

    def serve(self) -> None:
        """Read frames until EOF or ``shutdown``, then drain and exit."""
        writer = threading.Thread(
            target=self._writer, name="shard-writer", daemon=True
        )
        writer.start()
        try:
            while True:
                payload = read_frame(self._inp)
                if payload is None or not self._dispatch(payload):
                    break
        finally:
            # Drain in-flight work so every admitted request gets its
            # reply frame out before the pipe closes.
            self.service.shutdown(wait=True)
            self._outq.put(None)
            writer.join(timeout=10.0)
            try:
                # A subprocess's exit would close this fd; an in-process
                # worker must close it itself so the peer sees EOF.
                self._out.close()
            except (BrokenPipeError, OSError, ValueError):
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="one analysis shard speaking the wire protocol on stdio"
    )
    parser.add_argument("--shard", type=int, default=0,
                        help="this shard's index (for readiness reporting)")
    parser.add_argument("--workers", type=int, default=2,
                        help="AnalysisService worker threads")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="admission bound on in-flight requests")
    parser.add_argument("--cache-size", type=int, default=512,
                        help="result-cache capacity (lines)")
    parser.add_argument("--verify-on-hit", action="store_true",
                        help="replay certificates on cache hits")
    parser.add_argument("--chaos-exit-after", type=int, default=None,
                        help="test hook: die hard after N completed requests")
    args = parser.parse_args(argv)

    # Own the frame channel, then point fd 1 at stderr so stray prints
    # from analysis code cannot corrupt frames.
    inp = os.fdopen(os.dup(0), "rb", buffering=0)
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    service = AnalysisService(
        workers=args.workers,
        max_pending=args.max_pending,
        cache=ResultCache(maxsize=args.cache_size),
        verify_on_hit=args.verify_on_hit,
    )
    ShardWorker(
        service, inp, out,
        shard_index=args.shard,
        chaos_exit_after=args.chaos_exit_after,
    ).serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
