"""Renaming-invariant structural hashing for the repo's core objects.

The analysis service (:mod:`repro.service`) memoizes decomposition and
classification results in an LRU keyed by *canonical structural keys*:
two automata (or lattices, or formulas) that differ only by a renaming
of their states (or elements) must hit the same cache line, and two
objects with different languages must not collide.  This module provides
the one algorithm behind every ``canonical_key()`` method: canonical
labeling of a node/edge-colored directed multigraph.  It runs on ints
(:func:`canonical_int_key`); :func:`canonical_digraph_key` is its front
end for graphs over arbitrary hashables.

The construction is the classic two-stage scheme (nauty in miniature,
after McKay–Piperno), run on integers:

0. **Ranks**: the core sees only int colours and labels, and a
   ``tables`` tuple that says what they mean.  The front end serializes
   every node color and edge label once with :func:`stable_token` and
   replaces it by its rank among the sorted distinct tokens; a Büchi
   automaton tokenizes only its alphabet, per call, and reads its
   colours (``2·initial + accepting``) and edges off its dense form.
   Ranks depend only on the values, so they are renaming-invariant; the
   sorted token tables go into the digest, so equal ranks mean equal
   values.  Tokens are never memoized by value: ``1``, ``1.0`` and
   ``True`` are equal dict keys with distinct tokens.
1. **Color refinement** (1-dimensional Weisfeiler–Leman): every node's
   new color is the rank of its signature — its color, then the sorted
   ``(direction, edge label, neighbor color)`` triples of its edges —
   among the distinct signatures, until the partition into color
   classes stabilizes.  Refinement is order-free, so the resulting
   partition is invariant under any renaming of the nodes.
2. **Individualization**: if refinement leaves a color class with more
   than one node, each node of the first such class is tentatively
   given a fresh color and refinement recurses; the smallest resulting
   encoding (an int tuple, compared as a tuple) is taken.  Branching
   over *every* member of the class keeps the result renaming-invariant,
   and taking the minimum makes it canonical.  A member is skipped when
   swapping it with an already-branched member is an automorphism
   (twins, such as clones of one state): the swap maps one subtree onto
   the other, so the minimum is unchanged.  The search is exponential
   only on graphs with large symmetric classes that are not twins (a
   ring); a ``budget`` caps the number of leaf encodings and raises
   :class:`CanonicalizationError` beyond it (callers fall back to an
   uncacheable key — a cache miss, never a wrong answer).
3. **Declined graphs are remembered**: a budget failure is recorded
   under a renaming-invariant digest of what is known before the search
   (the tables, the sizes and base colours of the
   first stable partition's cells, the edge counts between cells, and
   the budget), in a bounded memo.  A later graph with the same digest
   is declined at once, without searching.  A non-isomorphic graph that
   collides on the digest is declined too — it becomes uncacheable, a
   cache miss, never a wrong key.

The canonical *encoding* lists every node's original color rank and
every edge under the canonical numbering, so equal keys imply
isomorphic inputs (no WL false merges: WL only steers the ordering, the
full structure is what gets hashed).  The key is one :func:`digest`
over ``repr`` of the tables and the encoding (``repr`` of nested tuples
of strings and ints is injective); the declined digest hashes a tuple
tagged ``"declined"``, so the two never meet.  Nothing is hashed per
node or per round.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from collections.abc import Iterable, Mapping

__all__ = [
    "CanonicalizationError",
    "canonical_digraph_key",
    "canonical_int_key",
    "digest",
    "stable_token",
]

#: Leaf-encoding budget for the individualization search.  Every graph in
#: the repo canonicalizes in a handful of leaves; the cap only guards
#: against adversarially symmetric inputs.
DEFAULT_BUDGET = 4096


#: How many budget failures :func:`canonical_digraph_key` remembers
#: (oldest forgotten first).
DECLINED_MEMO_SIZE = 256


class _DeclinedMemo:
    """The digests of graphs whose search exhausted its budget, at most
    ``size`` of them, oldest forgotten first.  Shared by every thread
    that keys, so every access holds the lock."""

    def __init__(self, size: int):
        self._size = size
        self._digests: dict = {}
        self._lock = threading.Lock()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._digests

    def __len__(self) -> int:
        with self._lock:
            return len(self._digests)

    def add(self, key: str) -> None:
        with self._lock:
            self._digests[key] = None
            if len(self._digests) > self._size:
                del self._digests[next(iter(self._digests))]


_DECLINED = _DeclinedMemo(DECLINED_MEMO_SIZE)


class CanonicalizationError(ValueError):
    """The individualization search exceeded its budget."""


def stable_token(value) -> str:
    """A deterministic, *injective* string for a hashable value,
    independent of hash seeds and container ordering (frozensets are
    serialized sorted).

    String and ``repr`` payloads are length-prefixed (netstring style),
    so a payload containing separator characters cannot forge another
    value's serialization — ``("a,s:b",)`` and ``("a", "b")`` get
    distinct tokens.  These tokens feed node colors and edge labels in
    :func:`canonical_digraph_key`; a collision there would merge two
    non-isomorphic graphs onto one cache key."""
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if isinstance(value, bool):
        return "b:" + str(value)
    if isinstance(value, (int, float)):
        return "n:" + repr(value)
    if value is None:
        return "0:"
    if isinstance(value, tuple):
        return "t:(" + ",".join(stable_token(v) for v in value) + ")"
    if isinstance(value, (frozenset, set)):
        return "f:{" + ",".join(sorted(stable_token(v) for v in value)) + "}"
    text = repr(value)
    return f"r{len(text)}:{text}"


def digest(text: str) -> str:
    """A short, stable hex digest (cache-key sized)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _ranks(values: list) -> list[int]:
    """Each value's rank among the sorted distinct values.  The ranks
    depend only on the values' order, never on which node holds them, so
    ranking is renaming-invariant."""
    rank = {value: i for i, value in enumerate(sorted(set(values)))}
    return [rank[value] for value in values]


def _refine(colors: list[int],
            scaled: list[tuple[int, int, int, int]]) -> list[int]:
    """Run WL colour refinement to a fixpoint and return the final colours.

    ``scaled`` holds each edge as ``(out label, in label, src, dst)``,
    the labels pre-scaled past every colour, so ``label + colour`` names
    a ``(direction, label, neighbour colour)`` triple as one int.  A
    node's new colour is the rank of its signature: its colour, then the
    sorted triple ints of its edges, as one flat tuple.  The signature
    leads with the old colour, so the new colours refine the old ones
    and keep their order; a discrete partition is already the
    fixpoint."""
    n = len(colors)
    classes = len(set(colors))
    while True:
        incident: list[list[int]] = [[] for _ in range(n)]
        for out_label, in_label, src, dst in scaled:
            incident[src].append(out_label + colors[dst])
            incident[dst].append(in_label + colors[src])
        new_colors = _ranks([(color, *sorted(ints))
                             for color, ints in zip(colors, incident)])
        new_classes = max(new_colors) + 1
        if new_classes in (classes, n):
            return new_colors
        colors, classes = new_colors, new_classes


def _swap_is_automorphism(u: int, w: int, edges) -> bool:
    """Whether exchanging ``u`` and ``w`` (of equal colour) maps the edge
    multiset onto itself.  Only edges at ``u`` or ``w`` move, so it is
    enough that those edges, with ``u`` and ``w`` swapped, are the same
    multiset."""
    def swap(x: int) -> int:
        return w if x == u else u if x == w else x

    ends = (u, w)
    moved = [edge for edge in edges if edge[1] in ends or edge[2] in ends]
    return (sorted(moved)
            == sorted([(label, swap(src), swap(dst))
                       for label, src, dst in moved]))


def _encode(position: list[int], base_colors: list[int],
            edges: list[tuple[int, int, int]]) -> tuple:
    """The canonical encoding with node ``v`` at ``position[v]``:
    original colours in canonical position, then the sorted renumbered
    edges, each as the int ``(label * n + src) * n + dst``."""
    n = len(position)
    colors = [0] * n
    for v, i in enumerate(position):
        colors[i] = base_colors[v]
    return (
        tuple(colors),
        tuple(sorted([(label * n + position[src]) * n + position[dst]
                      for label, src, dst in edges])),
    )


def _canonical_encoding(colors: list[int], base_colors: list[int],
                        edges: list[tuple[int, int, int]],
                        scaled, budget: list[int]) -> tuple:
    """The minimum leaf encoding below ``colors``, a stable partition."""
    n = len(colors)
    if max(colors) + 1 == n:
        # discrete: the colours are 0..n-1, so they *are* the positions
        budget[0] -= 1
        if budget[0] < 0:
            raise CanonicalizationError("individualization budget exceeded")
        return _encode(colors, base_colors, edges)
    members: list[list[int]] = [[] for _ in range(n)]
    for v, color in enumerate(colors):
        members[color].append(v)
    target = next(cell for cell in members if len(cell) > 1)
    # Individualize each member of the first tied class (colour n is
    # fresh: refined colours are ranks below n); keep the minimum.  A
    # member that some already-branched member can be swapped with by an
    # automorphism is skipped: the swap maps one subtree onto the other,
    # so both reach the same minimum.
    best = None
    branched: list[int] = []
    for v in target:
        if any(_swap_is_automorphism(b, v, edges) for b in branched):
            continue
        branched.append(v)
        individualized = list(colors)
        individualized[v] = n
        encoding = _canonical_encoding(
            _refine(individualized, scaled),
            base_colors, edges, scaled, budget,
        )
        if best is None or encoding < best:
            best = encoding
    return best


def _partition_invariant(colors: list[int], base_colors: list[int],
                         edges: list[tuple[int, int, int]]) -> tuple:
    """A renaming-invariant summary of a stable partition: per cell (in
    colour order) its size and base colour, then the number of edges of
    each label between each ordered pair of cells."""
    cells = max(colors) + 1
    sizes = [0] * cells
    base = [0] * cells
    for v, color in enumerate(colors):
        sizes[color] += 1
        base[color] = base_colors[v]
    counts = Counter(
        [(label, colors[src], colors[dst]) for label, src, dst in edges]
    )
    return tuple(sizes), tuple(base), tuple(sorted(counts.items()))


def canonical_digraph_key(
    nodes: Iterable,
    colors: Mapping,
    edges: Iterable[tuple],
    *,
    graph_attrs=(),
    budget: int = DEFAULT_BUDGET,
) -> str:
    """The canonical key of a node/edge-colored directed multigraph.

    Parameters
    ----------
    nodes:
        The node identities (any hashables; only used to wire up edges).
    colors:
        ``{node: color}`` — the renaming-*invariant* data attached to a
        node (e.g. ``(is_initial, is_accepting)``).  Colors are
        serialized with :func:`stable_token`, so tuples/frozensets of
        primitives are safe.
    edges:
        ``(label, src, dst)`` triples; labels are renaming-invariant
        (e.g. alphabet symbols) and serialized with :func:`stable_token`.
    graph_attrs:
        Extra renaming-invariant data hashed into the key (alphabet,
        arity, acceptance-pair count, ...).

    Returns a hex digest.  Equal keys imply color/edge-isomorphic inputs
    with equal ``graph_attrs``; renaming the nodes never changes the key.
    The graph is tokenized here and keyed by :func:`canonical_int_key`.
    """
    node_list = list(nodes)
    index = {node: i for i, node in enumerate(node_list)}
    # each colour and label is tokenized once and replaced by its rank;
    # the sorted token tables give the ranks their meaning
    color_tokens = [stable_token(colors.get(node)) for node in node_list]
    edge_list = list(edges)
    label_tokens = [stable_token(label) for label, _, _ in edge_list]
    return canonical_int_key(
        _ranks(color_tokens),
        [(label, index[src], index[dst])
         for label, (_, src, dst) in zip(_ranks(label_tokens), edge_list)],
        (stable_token(tuple(graph_attrs)),
         tuple(sorted(set(color_tokens))),
         tuple(sorted(set(label_tokens)))),
        budget=budget,
    )


def canonical_int_key(
    base_colors: list[int],
    edges: list[tuple[int, int, int]],
    tables: tuple,
    *,
    budget: int = DEFAULT_BUDGET,
) -> str:
    """The canonical key of a graph on nodes ``0..n-1`` given in ints.

    ``base_colors[v]`` is node ``v``'s colour and ``edges`` are ``(label,
    src, dst)`` triples, all non-negative ints whose meaning must not
    depend on the numbering of the nodes.  ``tables`` (nested tuples of
    strings) says what the ints mean — the token tables they rank, and
    what kind of graph this is — and is hashed into the key, so equal
    keys imply isomorphic graphs under equal tables.
    """
    n = len(base_colors)
    # refinement colours stay below scale (n is the individualized
    # colour), so label * scale + colour is one non-negative int per
    # (out-edge label, colour) pair and -(label + 1) * scale + colour one
    # negative int per (in-edge label, colour) pair
    scale = max(n, max(base_colors, default=0)) + 1
    scaled = [(label * scale, -(label + 1) * scale, src, dst)
              for label, src, dst in edges]
    encoding = ()
    if n:
        colors = _refine(base_colors, scaled)
        declined = None
        if max(colors) + 1 < n:  # a search ahead: has it failed before?
            declined = digest(repr((
                "declined", tables,
                _partition_invariant(colors, base_colors, edges), budget,
            )))
            if declined in _DECLINED:
                raise CanonicalizationError(
                    "declined: a graph with this invariant exceeded the "
                    "individualization budget before"
                )
        try:
            encoding = _canonical_encoding(
                colors, base_colors, edges, scaled, [budget]
            )
        except CanonicalizationError:
            if declined is not None:
                _DECLINED.add(declined)
            raise
    return digest(repr((tables, encoding)))
