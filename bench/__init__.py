"""One benchmark for the analysis service and the RV engine.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints its metrics, ending with
one JSON line; ``python -m bench run --seed N`` runs every workload that
way and ``python -m bench compare A B`` compares two sets of result
records.  Metric names, units, directions and bounds live in
``BENCHMARK.json`` at the repository root; ``bench/README.md`` says what
each one means.

The benchmark drives the program only through its public API and
generates every input itself (:mod:`bench.inputs`), so edits elsewhere in
the repository cannot change what it measures.
"""
