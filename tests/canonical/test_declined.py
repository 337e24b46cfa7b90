"""The memo of declined graphs: a budget failure is remembered under a
renaming-invariant digest, so a resubmission is declined without a
second search, and a colliding graph is declined, never mis-keyed."""

import random

import pytest

import repro.canonical as canonical
from repro.buchi import BuchiAutomaton
from repro.canonical import (
    DECLINED_MEMO_SIZE,
    CanonicalizationError,
    canonical_digraph_key,
)
from repro.service import handlers
from repro.service.requests import DecomposeRequest


def cycles_family(k: int, rename=lambda q: q) -> BuchiAutomaton:
    """An initial ``a``-loop plus ``k`` identical unreachable 3-cycles:
    every 3-cycle is an orbit no twin pruning collapses."""
    states = [0] + [3 * i + j + 1 for i in range(k) for j in range(3)]
    transitions = {(rename(0), "a"): {rename(0)}}
    for i in range(k):
        base = 3 * i + 1
        for j in range(3):
            transitions[rename(base + j), "a"] = {rename(base + (j + 1) % 3)}
    return BuchiAutomaton.build(
        "ab", [rename(q) for q in states], rename(0), transitions,
        [rename(0)], name="F",
    )


def uniform(n_nodes, edges):
    nodes = list(range(n_nodes))
    return nodes, {q: "q" for q in nodes}, edges


def no_search(*args):
    raise AssertionError("the individualization search ran again")


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_family_is_declined_without_a_second_search(k, monkeypatch):
    assert handlers.cache_key(DecomposeRequest(subject=cycles_family(k))) is None
    monkeypatch.setattr(canonical, "_canonical_encoding", no_search)
    assert handlers.cache_key(DecomposeRequest(subject=cycles_family(k))) is None
    # the digest is renaming-invariant: a renamed copy is declined too
    order = list(range(1 + 3 * k))
    random.Random(k).shuffle(order)
    renamed = cycles_family(k, rename=lambda q: f"s{order[q]}")
    assert handlers.cache_key(DecomposeRequest(subject=renamed)) is None


def test_colliding_graph_is_declined_not_mis_keyed(monkeypatch):
    """One 24-ring and two 12-rings share every pre-search invariant
    (one cell of 24 nodes, 24 edges inside it) but are not isomorphic:
    once the ring fails, the pair is declined as well — no key at all,
    so it can never share a cache line with the ring."""
    ring = uniform(24, [("e", i, (i + 1) % 24) for i in range(24)])
    pair = uniform(24, [("e", i, 12 * (i // 12) + (i + 1) % 12)
                        for i in range(24)])
    with pytest.raises(CanonicalizationError):
        canonical_digraph_key(*ring, budget=3)
    monkeypatch.setattr(canonical, "_canonical_encoding", no_search)
    with pytest.raises(CanonicalizationError):
        canonical_digraph_key(*pair, budget=3)
    monkeypatch.undo()
    # under another budget the digest differs, and the search runs
    assert canonical_digraph_key(*pair)


def test_successful_keys_are_not_remembered():
    before = len(canonical._DECLINED)
    ring = uniform(12, [("e", i, (i + 1) % 12) for i in range(12)])
    assert canonical_digraph_key(*ring)
    assert len(canonical._DECLINED) == before


def test_memo_is_bounded():
    ring = uniform(4, [("e", i, (i + 1) % 4) for i in range(4)])
    for tag in range(DECLINED_MEMO_SIZE + 20):
        with pytest.raises(CanonicalizationError):
            canonical_digraph_key(*ring, graph_attrs=(tag,), budget=1)
    assert len(canonical._DECLINED) == DECLINED_MEMO_SIZE
