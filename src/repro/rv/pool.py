"""A small reusable worker pool shared by the rv engine and the
analysis service.

:class:`WorkerPool` wraps a lazily-created ``ThreadPoolExecutor`` with
the dispatch policy proven in :class:`~repro.rv.engine.RvEngine`: work
runs inline unless the pool is configured for parallelism *and* there is
more than one unit of work, so single-group batches never pay executor
overhead and ``workers=0`` degrades to a plain loop.  The service
(:mod:`repro.service`) runs its cache misses and certificate replays on
the same pool via :meth:`submit`, and serves cache hits on the
submitting thread without the pool.

Two ops-plane duties ride on the pool:

* **Context propagation** — ``contextvars`` don't cross threads on
  their own, so :meth:`submit` and :meth:`map` capture the submitting
  thread's context (including the current
  :class:`~repro.obs.trace.Span`) and reactivate it on the worker.  A
  span opened on the worker is a child of the submitter's span, so a
  kernel phase firing three threads deep still attributes to the
  request that caused it.
* **Lifecycle events** — worker starts, worker deaths (at shutdown) and
  escaped task exceptions are journaled, so "did the pool lose a
  thread?" is a query, not a guess.

Python threads don't parallelize pure-Python inner loops (the GIL), but
the pool keeps both callers' shapes honest — grouping, isolation and
determinism are exactly what a process pool or a C kernel would need.
"""

from __future__ import annotations

import contextvars
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor

from repro.ops.journal import JOURNAL, WARN, EventJournal

__all__ = ["WorkerPool"]


class WorkerPool:
    """A lazily-started thread pool with an inline fast path.

    ``workers <= 1`` means strictly inline execution: :meth:`map` loops
    in the calling thread and :meth:`submit` runs the callable before
    returning an already-resolved future.  The underlying executor is
    only created on first parallel use, so constructing a pool is free.
    """

    def __init__(self, workers: int = 0, *,
                 thread_name_prefix: str = "worker",
                 journal: EventJournal | None = JOURNAL):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.thread_name_prefix = thread_name_prefix
        self._journal = journal
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._started_workers: list[str] = []

    @property
    def parallel(self) -> bool:
        """Whether this pool can run work on pool threads at all."""
        return self.workers > 1

    @property
    def started(self) -> bool:
        """Whether the underlying executor has been created."""
        return self._executor is not None

    def _worker_started(self) -> None:
        """Executor initializer: runs once on each new worker thread."""
        name = threading.current_thread().name
        with self._lock:
            self._started_workers.append(name)
        if self._journal is not None:
            self._journal.emit("pool.worker_start", worker=name)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix=self.thread_name_prefix,
                initializer=self._worker_started,
            )
        return self._executor

    # -- dispatch -----------------------------------------------------------

    def _carrying(self, fn: Callable, *args, **kwargs) -> Callable:
        """Bind ``fn(*args, **kwargs)`` to the *submitting* thread's
        ``contextvars`` snapshot, journaling exceptions that escape on
        the worker (they still re-raise through the future)."""
        captured = contextvars.copy_context()

        def run():
            try:
                return captured.run(fn, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if self._journal is not None:
                    self._journal.emit(
                        "pool.task_error", WARN,
                        task=getattr(fn, "__qualname__", repr(fn)),
                        error=type(exc).__name__,
                    )
                raise

        return run

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item, in parallel when it pays off.

        Single-item sequences and ``workers <= 1`` run inline; otherwise
        the items are fanned out to the executor — each on a copy of the
        caller's context, journaling escaped exceptions as :meth:`submit`
        does — and the results are collected in input order
        (exceptions re-raise here, as with a plain loop)."""
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        executor = self._ensure_executor()
        # _carrying takes one context copy per item: a contextvars.Context
        # cannot be entered concurrently, and items may run on distinct
        # threads.
        futures = [executor.submit(self._carrying(fn, item)) for item in items]
        return [future.result() for future in futures]

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``, returning its future.

        With ``workers <= 1`` the call runs inline and the returned
        future is already resolved — callers get one execution model
        regardless of configuration."""
        if not self.parallel:
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 — future carries it
                future.set_exception(exc)
            return future
        return self._ensure_executor().submit(self._carrying(fn, *args, **kwargs))

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor (if started); the pool may be reused after —
        the next parallel call starts a fresh executor.  Worker threads
        genuinely exit here, so each started worker's death is journaled
        (with ``wait=False`` the events note the shutdown was unwaited)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None
            with self._lock:
                names = list(self._started_workers)
                self._started_workers.clear()
            if self._journal is not None:
                for name in names:
                    self._journal.emit("pool.worker_death",
                                       worker=name, waited=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "started" if self.started else "idle"
        return f"WorkerPool(workers={self.workers}, {state})"
