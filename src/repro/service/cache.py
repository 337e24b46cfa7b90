"""The service's memo store: a thread-safe, size-bounded LRU.

Same locking discipline as :class:`repro.rv.compile.CompileCache`: hits
touch the lock once, misses *compute outside the lock* (decompositions
can take milliseconds — serializing them behind the cache lock would
turn the cache into a throttle) and re-check before inserting, so a
losing racer adopts the winner's value instead of double-inserting.
:meth:`ResultCache.lookup` is the hit half on its own — the service
serves hits with it on the submitting thread and hands only misses to
its worker pool, whose :meth:`~ResultCache.get_or_compute` counts the
miss — so every request is counted exactly once.
:meth:`ResultCache.encoded` keeps one more thing on a line: the wire
encoding of its value, made once per line by the sharded worker and
reused by every later hit while the line still holds that same value
object.  The LRU bounds these bytes along with the values; the
in-process service never stores any.
Keys are the canonical structural hashes of :mod:`repro.canonical` —
renaming-invariant, so isomorphic subjects share one cache line.

Introspection is first-class (the ops plane's ``/debug/cache`` feeds on
it): every line records its insertion time and hit count,
:meth:`ResultCache.stats` returns the typed full breakdown — hits,
misses, certificate-rejected evictions, LRU evictions, entry count and
a (shallow) bytes estimate that includes each stored encoding's
length — and :meth:`ResultCache.lines` lists the per-line ages.  Evictions are reported to the event journal *after* the
lock is released, never from inside it.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.ops.journal import INFO, JOURNAL, EventJournal

#: What :meth:`ResultCache.lookup` returns for an absent key —
#: distinguishes "no entry" from a legitimately-cached ``None`` value.
MISS = object()


class _Line:
    """One cache entry plus its introspection record."""

    __slots__ = ("value", "created_at", "hits", "size", "encoding")

    def __init__(self, value: object):
        self.value = value
        self.encoding = MISS
        self.created_at = time.perf_counter()
        self.hits = 0
        # Shallow estimate (container/object header only, plus the key's
        # share added by the caller): an honest lower bound that costs
        # O(1), not a deep traversal of automata on the serving path.
        try:
            self.size = sys.getsizeof(value)
        except TypeError:
            self.size = 0


def _length(encoding) -> int:
    """A stored encoding's length: characters of a ``str``/``bytes``,
    summed over the keys and values of a wire payload ``dict``."""
    if isinstance(encoding, (str, bytes)):
        return len(encoding)
    if isinstance(encoding, dict):
        return sum(_length(k) + _length(v) for k, v in encoding.items())
    return sys.getsizeof(encoding)


@dataclass(frozen=True)
class ResultCacheInfo:
    """A point-in-time snapshot of the hit/miss counters (the original
    PR-4 surface; :meth:`ResultCache.stats` is the full breakdown)."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class ResultCacheStats:
    """The typed per-cache breakdown served by ``/debug/cache``.

    ``rejected`` counts certificate-replay evictions
    (``verify_on_hit``); ``evictions`` counts LRU capacity evictions;
    ``bytes_estimate`` is a *shallow* sum (keys + top-level values +
    stored encodings) — a floor, not a census."""

    hits: int
    misses: int
    rejected: int
    evictions: int
    entries: int
    maxsize: int
    bytes_estimate: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "entries": self.entries,
            "maxsize": self.maxsize,
            "bytes_estimate": self.bytes_estimate,
            "hit_ratio": self.hit_ratio,
        }


class ResultCache:
    """A bounded LRU mapping canonical keys to analysis results."""

    def __init__(self, maxsize: int = 512, *,
                 journal: EventJournal | None = JOURNAL):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._journal = journal
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Line] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._rejected = 0
        self._evictions = 0

    def _note_evicted(self, keys: list[str]) -> None:
        if self._journal is not None:
            for key in keys:
                self._journal.emit("cache.evicted", INFO, key=key)

    def get_or_compute(self, key: str | None, compute: Callable[[], object]) -> tuple[object, bool]:
        """Return ``(value, was_hit)``; uncacheable keys (``None``)
        compute unconditionally and store nothing."""
        if key is None:
            return compute(), False
        value = self.lookup(key)
        if value is not MISS:
            return value, True
        value = compute()
        evicted: list[str] = []
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Raced with another miss on the same key: one compute
                # wins, everyone returns its value.
                self._entries.move_to_end(key)
                self._misses += 1
                return existing.value, False
            self._entries[key] = _Line(value)
            while len(self._entries) > self.maxsize:
                dropped, _ = self._entries.popitem(last=False)
                self._evictions += 1
                evicted.append(dropped)
            self._misses += 1
        self._note_evicted(evicted)
        return value, False

    def lookup(self, key: str) -> object:
        """The value cached under ``key`` — counted as a hit and moved to
        the LRU's hot end — or :data:`MISS`, counted nowhere: the caller's
        follow-up :meth:`get_or_compute` counts that request's miss (or
        its hit, when a racer filled the line in between)."""
        with self._lock:
            line = self._entries.get(key)
            if line is None:
                return MISS
            self._entries.move_to_end(key)
            self._hits += 1
            line.hits += 1
            return line.value

    def encoded(self, key: str | None, value: object,
                encode: Callable[[object], object]) -> object:
        """``encode(value)``, made once per cache line.

        The encoding is stored on ``key``'s line and reused only while
        that line still holds ``value`` itself (checked by identity), so
        a line recomputed after an eviction, an :meth:`invalidate` or a
        :meth:`put` never serves the old value's bytes.  When ``key`` has
        no line (an uncacheable ``None`` key never has one), or its line
        holds another value, the encoding is returned without being
        stored.  ``encode`` runs outside the lock; two racing first hits
        may both encode, and the first to store wins.  Counts nothing and
        does not touch the LRU order."""
        with self._lock:
            line = self._entries.get(key)
            if line is not None and line.value is value \
                    and line.encoding is not MISS:
                return line.encoding
        encoding = encode(value)
        with self._lock:
            line = self._entries.get(key)
            if line is not None and line.value is value:
                if line.encoding is not MISS:
                    return line.encoding
                line.encoding = encoding
                line.size += _length(encoding)
        return encoding

    def put(self, key: str, value: object) -> None:
        """Insert eagerly (warm start)."""
        evicted: list[str] = []
        with self._lock:
            self._entries[key] = _Line(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                dropped, _ = self._entries.popitem(last=False)
                self._evictions += 1
                evicted.append(dropped)
        self._note_evicted(evicted)

    def invalidate(self, key: str, *, rejected: bool = False) -> bool:
        """Drop one entry; returns whether anything was evicted.
        ``rejected=True`` marks a certificate-replay failure (the
        ``verify_on_hit`` path), counted separately in :meth:`stats`."""
        with self._lock:
            dropped = self._entries.pop(key, MISS) is not MISS
            if dropped and rejected:
                self._rejected += 1
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._rejected = 0
            self._evictions = 0

    def info(self) -> ResultCacheInfo:
        with self._lock:
            return ResultCacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self.maxsize,
            )

    def stats(self) -> ResultCacheStats:
        """The full typed breakdown (no metrics scraping required)."""
        with self._lock:
            bytes_estimate = sum(
                len(key) + line.size for key, line in self._entries.items()
            )
            return ResultCacheStats(
                hits=self._hits,
                misses=self._misses,
                rejected=self._rejected,
                evictions=self._evictions,
                entries=len(self._entries),
                maxsize=self.maxsize,
                bytes_estimate=bytes_estimate,
            )

    def lines(self) -> list[dict]:
        """Per-line introspection rows (LRU order, coldest first)."""
        now = time.perf_counter()
        with self._lock:
            snapshot = [
                (key, line.created_at, line.hits, line.size)
                for key, line in self._entries.items()
            ]
        return [
            {
                "key": key,
                "age_seconds": now - created_at,
                "hits": hits,
                "bytes_estimate": len(key) + size,
            }
            for key, created_at, hits, size in snapshot
        ]

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ResultCache(size={stats.entries}/{stats.maxsize}, "
            f"hits={stats.hits}, misses={stats.misses}, "
            f"rejected={stats.rejected}, evictions={stats.evictions})"
        )
