"""TRANS — LTL → Büchi translation sizes and cost (supporting the TAB1
machinery; the on-the-fly tableau's practical footprint).

Also the simulation-quotient ablation: automaton sizes with and without
the reduction — the design choice DESIGN.md §6 calls out for keeping
exact complementation-based checks feasible.
"""

import time

from repro.ltl import parse, satisfies, translate
from repro.omega import all_lassos

from .conftest import emit

FORMULAS = [
    "a",
    "G a",
    "F a",
    "GF a",
    "FG a",
    "a U b",
    "a & F !a",
    "G (a -> F b)",
    "G (a -> X b)",
    "(GF a) & (GF b)",
    "(GF a) -> (GF b)",
    "G (a -> X (b U a))",
]


def _translate_all():
    rows = []
    for text in FORMULAS:
        f = parse(text)
        t0 = time.time()
        fast = translate(f, "ab", simplify=True)
        t_fast = time.time() - t0
        slow = translate(f, "ab", simplify=False)
        rows.append((text, len(slow.states), len(fast.states), t_fast))
    return rows


def test_translation_sizes(benchmark):
    rows = benchmark.pedantic(_translate_all, rounds=5, iterations=1)
    body = [f"{'formula':22s} raw  quotiented   sec"]
    for text, raw, small, t in rows:
        body.append(f"{text:22s} {raw:3d}  {small:9d}   {t:.4f}")
    emit("TRANS — tableau sizes (raw vs simulation-quotiented)", "\n".join(body))
    assert all(small <= raw for _t, raw, small, _s in rows)


def test_translation_correctness_sweep(benchmark):
    """Exhaustive semantic agreement for the full formula list."""

    def sweep():
        count = 0
        lassos = list(all_lassos("ab", 2, 3))
        for text in FORMULAS:
            f = parse(text)
            automaton = translate(f, "ab")
            for w in lassos:
                assert automaton.accepts(w) == satisfies(w, f), (text, w)
                count += 1
        return count

    count = benchmark.pedantic(sweep, rounds=5, iterations=1)
    emit(
        "TRANS — correctness sweep",
        f"{count} (formula, lasso) agreements between tableau and the "
        f"semantic evaluator",
    )
