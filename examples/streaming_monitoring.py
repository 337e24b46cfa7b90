"""Runtime verification at serving scale — 1,000 concurrent sessions,
four-valued verdicts.

Five LTL policies, one thousand live traces, one compiled monitor per
*distinct* policy (the LRU cache proves it), events ingested in
interleaved batches through the worker-pool engine.  Since PR 10 every
monitor is compiled through ``repro.analysis.decompose()`` — safety
closure onto the subset-table falsifier, liveness conjunct onto the
finitary bound tracker — so sessions report the four-valued verdict
lattice instead of "inconclusive forever" on live policies:

* ``falsified_safety`` — the prefix left the safety closure, no
  extension recovers;
* ``liveness_bound_exceeded`` — some wait for the liveness conjunct's
  good event exceeded the horizon (here: 8 events);
* ``satisfied_so_far`` — nothing outstanding right now;
* ``inconclusive`` — a wait is open but within the bound.

The three-valued verdicts stay bit-identical to feeding each trace to
the one-shot ``repro.ltl.RvMonitor`` — the decomposition changes what
the engine can *say*, never what it decides.

The run is fully observed: with the process-wide span recorder
(:data:`repro.obs.RECORDER`) switched on, every batch is one
``rv.ingest`` span with ``rv.drain_group`` children — parented across
the worker pool — and the compile phases of each distinct policy are
spans too (written to ``trace.json`` — load it in
https://ui.perfetto.dev), verdict
transitions land in the ops journal (``rv.verdict_transition``), and
the shared metric registry's Prometheus exposition — including the
per-verdict transition counters and verdict-latency histograms — is
printed at the end.

Run:  python examples/streaming_monitoring.py
"""

import random
import time
from collections import Counter

from repro.ltl import parse
from repro.obs import RECORDER, REGISTRY, to_prometheus
from repro.ops.journal import EventJournal, WARN
from repro.rv import RvEngine

POLICIES = {
    "no-b-ever": "G a",             # safety — falsifiable
    "eventually-b": "F b",          # co-safety — verifiable
    "b-after-a": "G (a -> X b)",    # safety with a window
    "infinitely-a": "GF a",         # liveness — bound-trackable
    "a-then-drop": "a & F !a",      # neither safe nor live
}

N_SESSIONS = 1_000
TRACE_LEN = 200
BATCH = 8_192
HORIZON = 8

rng = random.Random(42)
RECORDER.start()
journal = EventJournal(maxlen=65_536, min_level=WARN)
engine = RvEngine(workers=4, horizon=HORIZON, journal=journal)

specs = list(POLICIES.values())
print(f"opening {N_SESSIONS} sessions over {len(specs)} policies "
      f"(horizon {HORIZON}) ...")
traces = {}
for i in range(N_SESSIONS):
    engine.open_session(i, parse(specs[i % len(specs)]), "ab")
    traces[i] = [rng.choice("ab") for _ in range(TRACE_LEN)]

stream = [(i, traces[i][j]) for j in range(TRACE_LEN) for i in range(N_SESSIONS)]
print(f"ingesting {len(stream):,} interleaved events in batches of {BATCH:,} ...")
start = time.perf_counter()
for k in range(0, len(stream), BATCH):
    engine.ingest(stream[k : k + BATCH])
elapsed = time.perf_counter() - start

snap = engine.snapshot()
final4 = Counter(v.value for v in engine.verdicts4().values())
print(f"\n{snap['events']:,} events in {elapsed:.2f}s "
      f"({snap['events'] / elapsed:,.0f} events/s)")
print(f"table steps            {snap['steps']:,} "
      f"(truncation saved {snap['truncation_savings']:,} steps)")
print(f"verdicts (3-valued)    {snap['verdicts']}")
print(f"verdicts (4-valued)    {dict(final4)}")
print(f"transitions into       {snap['verdicts4']}")
print(f"compile cache          {snap['cache']['misses']} misses "
      f"(one per policy), {snap['cache']['hits']} hits")
print(f"step latency           p50 {snap['step_latency_p50_us']:.3f}µs   "
      f"p99 {snap['step_latency_p99_us']:.3f}µs")

assert snap["cache"]["misses"] == len(specs)
assert snap["cache"]["hits"] == N_SESSIONS - len(specs)
# every one of the four verdicts occurs in this workload: random traces
# falsify the safety policies, discharge the co-safety one, and blow /
# respect the GF-a horizon depending on run luck — seeded, so stable.
assert set(final4) == {
    "falsified_safety", "liveness_bound_exceeded",
    "satisfied_so_far", "inconclusive",
}, final4
severe = journal.events(level=WARN, name="rv.verdict_transition")
print(f"journal                {len(severe)} WARN-level verdict "
      f"transitions (falsified / bound exceeded)")
engine.shutdown()
RECORDER.stop()

spans = RECORDER.finished()
ingest_spans = [s for s in spans if s.name == "rv.ingest"]
drain_spans = [s for s in spans if s.name == "rv.drain_group"]
assert len(ingest_spans) == -(-len(stream) // BATCH)
assert all(s.parent in ingest_spans for s in drain_spans)
RECORDER.export_chrome("trace.json")
print(f"\nwrote trace.json — {len(spans)} spans "
      f"({len(ingest_spans)} ingest batches); open in ui.perfetto.dev")

exposition = to_prometheus(REGISTRY)
print("\nPrometheus exposition (rv families):")
for line in exposition.splitlines():
    if line.startswith(("# HELP repro_rv", "# TYPE repro_rv")) or (
        line.startswith("repro_rv") and "_bucket" not in line
    ):
        print(f"  {line}")

print("\nPer-verdict summary (from the registry):")
for line in exposition.splitlines():
    if line.startswith("repro_rv_verdict_transitions_total"):
        print(f"  {line}")
