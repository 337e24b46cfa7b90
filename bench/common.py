"""Paths, the program import, the reference blocks, percentiles and the
run fingerprint."""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in: ``BENCHMARK.json`` and ``src/``
#: sit at its root, the benchmark itself under ``bench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("hot-inproc", "hot-sharded", "cold-mixed", "rv-stream")


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def load_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import the
    program from there — never from anywhere else on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ProgramMissing(f"imported repro from {repro.__file__}, not {SRC}")


#: What ``bench/run.py`` imports before its first set-up, timed the same
#: way in a fresh interpreter.
_IMPORT_PROBE = """\
import time
started = time.perf_counter()
import sys
sys.path[0] = {root!r}
from bench import common
common.load_program()
from bench import ledger, workloads
print(time.perf_counter() - started)
"""


def import_seconds(block) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the program and the
    benchmark, as ``bench/run.py`` does before its first set-up: as
    measured, and at the reference speed (:func:`speed_scale`)."""
    before = speed_scale(block)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(root=str(ROOT))],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    after = speed_scale(block)
    seconds = float(done.stdout)
    return seconds, seconds * (before + after) / 2


def spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: What a reference block takes, in seconds, at the reference speed
#: that every timing is scaled to.
REFERENCE_S = 20e-6

#: Read-only inputs of :func:`kernel_block`: a 32K-entry table and
#: the successor bitmasks of a fixed 24-state automaton per symbol.
_TABLE = tuple((k * 2654435761) % 1000003 for k in range(1 << 15))
_MOVES = (
    tuple((1 << (5 * q + 1) % 24) | (1 << (7 * q) % 24) for q in range(24)),
    tuple((1 << (q + 3) % 24) | (1 << (q * q) % 24) for q in range(24)),
)
#: Read-only inputs of :func:`lookup_block`: a 4096-entry dict with str
#: keys and the keys looked up, scattered over it.
_INDEX = {f"k{k}": k for k in range(4096)}
_KEYS = tuple(f"k{(k * 97) % 4096}" for k in range(320))


def kernel_block() -> int:
    """A fixed piece of interpreter work: scattered reads from a
    32K-entry table, then ten steps of a subset construction on int
    bitmasks, the form the program's kernel uses.

    Like :func:`lookup_block` it takes 15–25 µs on a 2.1-GHz Xeon vCPU
    and creates no object the cyclic collector tracks, so it never
    triggers a collection the ops would otherwise have paid for."""
    table, x, total = _TABLE, 1, 0
    for i in range(40):
        x = table[(x * 7919 + i) & 0x7FFF]
        total += x
    mask = 1
    for step in range(10):
        moves, successors, rest = _MOVES[step & 1], 0, mask
        while rest:
            low = rest & -rest
            successors |= moves[low.bit_length() - 1]
            rest ^= low
        mask = successors or 1
        total += mask
    return total


def lookup_block() -> int:
    """A fixed piece of interpreter work: 320 lookups of str keys in a
    4096-entry dict, the form of the program's session, table and cache
    lookups."""
    index, total = _INDEX, 0
    for key in _KEYS:
        total += index[key]
    return total


#: The reference block each workload's speed is read with.  A CPU's slow
#: phase does not slow every kind of interpreter work alike.  In three
#: 90–150-s probes that timed each op right after both blocks,
#: rv-stream's and hot-inproc's op times moved as the 0.90–1.06 power of
#: the lookup block's time but the 1.15–1.44 power of the kernel
#: block's; hot-sharded's as the 0.91–0.96 power of the kernel block's
#: (0.73 of the lookup block's); cold-mixed's as the 1.04–1.26 power of
#: the kernel block's (0.82–0.92 of the lookup block's).
REFERENCE_BLOCKS = {
    "hot-inproc": lookup_block,
    "hot-sharded": kernel_block,
    "cold-mixed": kernel_block,
    "rv-stream": lookup_block,
}


def reference_seconds(block) -> float:
    """Run ``block`` twice; returns the CPU time this thread spent on the
    second run.

    The first run brings the block's code and data back into the caches
    the program's work evicted, so the reading does not depend on how
    much memory the program touched.  CPU time, not wall time, so that a
    thread or process of the program running meanwhile on the same CPU
    (a shard finishing a reply, a pool thread) does not count either: the
    reading is only how fast the CPU runs the block."""
    clock = time.thread_time
    block()
    began = clock()
    block()
    return clock() - began


#: Reference blocks per :func:`speed_scale` reading (a few ms).
PROBE_BLOCKS = 200


def speed_scale(block) -> float:
    """The factor that scales a time measured now to the reference speed:
    REFERENCE_S over the median of PROBE_BLOCKS runs of ``block`` back to
    back.  A one-off span (an import, a set-up) is scaled by the mean of
    the readings just before and just after it."""
    times = sorted(reference_seconds(block) for _ in range(PROBE_BLOCKS))
    return REFERENCE_S / times[len(times) // 2]


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(samples) -> dict:
    """p50/p99 of a sample list, with the count and the tail beyond p99."""
    ordered = sorted(samples)
    p99 = percentile(ordered, 0.99)
    return {
        "p50": percentile(ordered, 0.50),
        "p99": p99,
        "samples": len(ordered),
        "above_p99": sum(1 for x in ordered if x > p99),
    }


def rss_peak_mb(pids=()) -> float:
    """Peak resident memory of this process plus each listed child
    (``VmHWM``), in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def _commit() -> str:
    """``git rev-parse HEAD`` of the checkout, or ``unknown`` when it is
    not a git repository (git never looks above the checkout)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Spans:
    """Benchmark-side spans (name, start, end, parent, request id), kept
    in memory and written out once as a Chrome trace."""

    def __init__(self):
        self._rows: list[tuple] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        """An id for a span whose children are recorded before it ends."""
        return next(self._ids)

    def add(self, name: str, start: float, end: float, request_id,
            parent: int | None = None, thread: int = 0,
            span_id: int | None = None) -> int:
        if span_id is None:
            span_id = self.new_id()
        self._rows.append(
            (span_id, name, start, end, parent, request_id, thread))
        return span_id

    def __len__(self) -> int:
        return len(self._rows)

    def write_chrome(self, path: Path, origin: float) -> None:
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": thread,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": span_id, "parent": parent,
                      "request_id": request_id}}
            for span_id, name, start, end, parent, request_id, thread
            in self._rows
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def fingerprint(**run) -> dict:
    """What a result record needs to be compared honestly."""
    uname = os.uname()
    return {
        "recorded_at": time.time(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
        "commit": _commit(),
        **run,
    }
