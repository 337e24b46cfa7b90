"""SEC24b — correctness and cost of the closure operator itself.

``L(cl B) = lcl(L(B))``: the automaton construction must agree with the
paper's semantic definition (every prefix extends) on every lasso.  The
benchmark validates the identity on random automata and times the two
sides — the construction is one SCC pass, the semantic check is per
word; crossing them is the strongest internal consistency check the
linear-time layer has.
"""

import random

from repro.buchi import closure, random_automaton, semantic_lcl_member
from repro.omega import all_lassos

from .conftest import emit

LASSOS = list(all_lassos("ab", 2, 3))


def _cross_validate(n_automata: int, n_states: int) -> int:
    rng = random.Random(31)
    agreements = 0
    for _ in range(n_automata):
        m = random_automaton(rng, n_states)
        cl = closure(m)
        for w in LASSOS:
            assert cl.accepts(w) == semantic_lcl_member(m, w)
            agreements += 1
    return agreements


def test_closure_vs_semantic_lcl(benchmark):
    agreements = benchmark.pedantic(
        _cross_validate, args=(10, 8), rounds=5, iterations=1
    )
    emit(
        "SEC24b — cl(B) vs semantic lcl",
        f"{agreements} (automaton, lasso) agreements; zero disagreements",
    )
    assert agreements == 10 * len(LASSOS)


def _closure_cost_series(sizes):
    import time

    rng = random.Random(13)
    rows = []
    for n in sizes:
        t0 = time.time()
        reps = 20
        for _ in range(reps):
            closure(random_automaton(rng, n))
        rows.append((n, (time.time() - t0) / reps))
    return rows


def test_closure_cost_scaling(benchmark):
    rows = benchmark.pedantic(
        _closure_cost_series, args=([5, 10, 20, 40, 80],), rounds=5, iterations=1
    )
    body = ["  n    sec/closure"]
    for n, t in rows:
        body.append(f"{n:4d}   {t:.5f}")
    emit("SEC24b — closure cost (graph-polynomial)", "\n".join(body))
    # near-linear growth: 16x states should cost far less than 1000x time
    assert rows[-1][1] < max(rows[0][1], 1e-4) * 1000
