"""``python -m bench run --seed N`` and ``python -m bench compare A B``.

``run`` runs every workload for ``BENCHMARK.json``'s ``run_seconds``,
each in a fresh ``bench/run.py`` process, prints all end-to-end metrics
by name with units, and exits non-zero if any answer was wrong.
``--trace`` adds a traced run of each workload for the per-layer ledger.
``--out DIR`` keeps the result records there (default ``bench/out/``).

``compare A B`` reads two directories of result records and prints one
row per workload × end-to-end metric (see :mod:`bench.compare`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .common import OUT, ROOT, WORKLOADS, spec
from .compare import compare, render


def _run(args) -> int:
    seconds = spec()["run_seconds"]
    out = args.out or OUT
    modes = (0, 1) if args.trace else (0,)
    status = 0
    for workload in WORKLOADS:
        for trace in modes:
            mode = "trace" if trace else "plain"
            command = [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--record", str(out / f"{workload}-{mode}.json"),
            ]
            finished = subprocess.run(command, cwd=ROOT, text=True,
                                      stdout=subprocess.PIPE)
            lines = finished.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if finished.returncode != 0 or not lines:
                print(f"{workload} ({mode}) exited {finished.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} ({mode}): correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
    return status


def _compare(args) -> int:
    rows = compare(args.a, args.b, spec())
    print(render(rows))
    return 1 if any(row["reading"] == "regressed" for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--trace", action="store_true",
                     help="also run each workload traced (per-layer ledger)")
    run.add_argument("--out", type=Path, default=None,
                     help="directory for the result records")
    run.set_defaults(handler=_run)
    pair = commands.add_parser("compare", help="compare two record sets")
    pair.add_argument("a", type=Path, help="records of the parent")
    pair.add_argument("b", type=Path, help="records of the change")
    pair.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
