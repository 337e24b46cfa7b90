"""Run one workload and print its metrics; the last line is one JSON object.

    python3 bench/run.py --workload hot-inproc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``, with
every timing scaled to the reference speed (see ``bench/workloads.py``);
``--trace 1`` runs the workload with alternating untraced/traced slices
and then the per-layer ledger (:mod:`bench.ledger`), prints the
per-layer metrics, and writes the benchmark-side spans as a Chrome trace
to ``bench/out/``.  Every run also writes a result record there (or to
``--record``).  The exit code is 0 only when every answer was right.
"""

import time

STARTED = time.perf_counter()  # before anything of the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# the checkout root replaces this script's directory on the path, so the
# benchmark's modules are importable only as ``bench.*``
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import common  # noqa: E402


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the result record")
    return parser.parse_args(argv)


def _expected(spec: dict, traced: bool) -> dict:
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    args = _arguments(argv)
    # One CPU for the load thread and every thread and process of the
    # program it starts: a reply then never waits for a sleeping CPU to
    # wake, which on a virtual machine costs a variable trip through the
    # host.  The last CPU, because device interrupts mostly land on CPU 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        spec = common.spec()
        common.load_program()
    except (OSError, ValueError, common.ProgramMissing) as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2
    from bench import ledger, workloads

    # the import happens once per process: time it again in fresh
    # interpreters so that, like the set-ups, it is a median of SETUPS;
    # each as measured and at the reference speed
    imported = time.perf_counter() - STARTED
    block = common.REFERENCE_BLOCKS[args.workload]
    imports = [(imported, imported * common.speed_scale(block))]
    imports += [common.import_seconds(block)
                for _ in range(workloads.SETUPS - 1)]
    traced = bool(args.trace)
    result = workloads.run(args.workload, args.seed, args.seconds, traced,
                           imports)
    spans = common.Spans()
    if traced:
        values, samples = ledger.measure(result["ledger_specs"], args.seed,
                                         spans, args.workload)
        values.update(result["counts"])
        values["trace_overhead"] = result["trace_overhead"]
        for name, request_id, start, end, thread in result["spans"]:
            spans.add(name, start, end, request_id, thread=thread)
    else:
        values, samples = result["end_to_end"], {"op": result["latency"]}

    units = _expected(spec, traced)
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 2
    correct = result["failed"] == 0
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    mode = "trace" if traced else "plain"
    record_path = args.record or (
        common.OUT / f"{args.workload}-seed{args.seed}-{mode}.json")
    record = {
        **line,
        "workload": args.workload,
        "checked": result["checked"],
        "samples": samples,
        "slice_rates": result["slice_rates"],
        "reference_us": result["reference_us"],
        "unscaled": result["unscaled"],
        "imports_s": imports,
        "setups_s": result["setups_s"],
        "active_s": result["active_s"],
        "notes": result["notes"],
        "env": common.fingerprint(
            seed=args.seed, seconds=args.seconds, trace=args.trace,
            setups=workloads.SETUPS,
            epoch_requests=workloads.EPOCH_REQUESTS,
            epoch_batches=workloads.EPOCH_BATCHES),
    }
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        spans.write_chrome(
            common.OUT / f"trace-{args.workload}-seed{args.seed}.json",
            origin=STARTED)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {result['attempted']} ops, "
          f"{result['checked']} answers checked, {result['failed']} failed")
    for note in result["notes"]:
        print(f"#   {note}")
    for name in units:
        stats = samples.get(name.rsplit(".", 1)[0]) or (
            samples["op"] if name.startswith("op_") else None)
        counted = (f"  (n={stats['samples']}, {stats['above_p99']} above p99)"
                   if stats else "")
        print(f"# {name:40s} {values[name]:>14.6g} {units[name]}{counted}")
    if traced:
        print(f"# {len(spans)} spans written to bench/out/")
    else:
        print(f"# timings above at the reference speed; as measured, with "
              f"the reference block at {result['reference_us']:.2f} us:")
        for name, value in result["unscaled"].items():
            print(f"#   {name:38s} {value:>14.6g}")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
