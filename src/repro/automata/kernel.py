"""Bitset kernels over dense automaton cores.

Every graph algorithm the Büchi/Rabin layers need, written once over
int bitmasks: reachability, Tarjan SCCs, liveness (the state set the
paper's closure operator keeps), the subset construction (the paper's
``cl`` and its complement), the two-phase intersection product, union,
the direct-simulation preorder, and lasso-word membership (both plain
acceptance and the semantic ``lcl`` test).

Conventions: a *mask* is an int whose bit ``q`` stands for state ``q``;
``adj`` is a per-state tuple of masks (symbols forgotten); ``succ`` is
the per-symbol table ``DenseBuchi.succ``.  All functions are pure.
"""

from __future__ import annotations

from .dense import DenseBuchi, DenseDfa


def iter_bits(mask: int):
    """Yield the set bit indices of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def post(row, source: int) -> int:
    """Union of ``row[q]`` over the states in ``source`` — one subset
    step for one symbol's successor table."""
    out = 0
    while source:
        low = source & -source
        out |= row[low.bit_length() - 1]
        source ^= low
    return out


def reachable_mask(core: DenseBuchi, start: int | None = None) -> int:
    """States reachable from ``start`` (default: the initial state)."""
    seen = (1 << core.initial) if start is None else start
    frontier = seen
    succ = core.succ
    while frontier:
        new = 0
        for row in succ:
            new |= post(row, frontier)
        frontier = new & ~seen
        seen |= frontier
    return seen


def adjacency(core: DenseBuchi) -> tuple:
    """Per-state successor masks with symbols forgotten."""
    n = core.n_states
    rows = [0] * n
    for row in core.succ:
        for q in range(n):
            rows[q] |= row[q]
    return tuple(rows)


def scc_masks(adj, nodes: int | None = None) -> list[int]:
    """Tarjan's strongly connected components of the graph ``adj``,
    restricted to the ``nodes`` mask (default: all), as a list of masks.

    Iterative, with one resumable remaining-successors mask per stack
    frame — no recursion, no per-node iterator objects.
    """
    n = len(adj)
    if nodes is None:
        nodes = (1 << n) - 1 if n else 0
    index = [-1] * n
    lowlink = [0] * n
    on_stack = 0
    stack: list[int] = []
    components: list[int] = []
    counter = 0
    for root in iter_bits(nodes):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack |= 1 << root
        work = [(root, adj[root] & nodes)]
        while work:
            node, remaining = work[-1]
            advanced = False
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                succ = low.bit_length() - 1
                if index[succ] == -1:
                    work[-1] = (node, remaining)
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack |= low
                    work.append((succ, adj[succ] & nodes))
                    advanced = True
                    break
                if on_stack & low and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component = 0
                while True:
                    w = stack.pop()
                    on_stack &= ~(1 << w)
                    component |= 1 << w
                    if w == node:
                        break
                components.append(component)
    return components


def is_cyclic_scc(component: int, adj) -> bool:
    """Whether an SCC carries an edge: more than one state, or a
    self-loop on its single state."""
    if component & (component - 1):
        return True
    q = component.bit_length() - 1
    return bool((adj[q] >> q) & 1)


def live_mask(core: DenseBuchi) -> int:
    """States with non-empty language: those that can reach a cyclic SCC
    containing an accepting state (the paper's ``Q' = {q | L(B(q)) ≠ ∅}``,
    §4.4)."""
    n = core.n_states
    adj = adjacency(core)
    good = 0
    for component in scc_masks(adj):
        if component & core.accepting and is_cyclic_scc(component, adj):
            good |= component
    if not good:
        return 0
    pred = [0] * n
    for q in range(n):
        targets = adj[q]
        bit = 1 << q
        while targets:
            low = targets & -targets
            pred[low.bit_length() - 1] |= bit
            targets ^= low
    result = good
    frontier = good
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= pred[low.bit_length() - 1]
            frontier ^= low
        frontier = new & ~result
        result |= frontier
    return result


def subset_dfa(
    core: DenseBuchi, *, initial: int | None = None, restrict: int | None = None
) -> DenseDfa:
    """The subset-construction DFA from ``initial`` (default: the core's
    initial state as a singleton), with every post-set intersected with
    ``restrict`` when given.

    The empty subset — the dead state recognizing bad prefixes — is
    always a DFA state (reached naturally or appended), with self-loops
    on every symbol.  DFA states are numbered breadth-first from the
    initial subset (state 0), symbols by index, and an unreached dead
    state comes last: the order the state interner gives a deterministic
    automaton, so a complement built on the DFA keeps its numbering.
    """
    succ = core.succ
    init = (1 << core.initial) if initial is None else initial
    if restrict is not None:
        init &= restrict
    subsets = [init]
    index = {init: 0}
    rows = []
    for mask in subsets:  # grows while iterated: a FIFO queue
        row = []
        for table in succ:
            target = 0
            m = mask
            while m:
                low = m & -m
                target |= table[low.bit_length() - 1]
                m ^= low
            if restrict is not None:
                target &= restrict
            t = index.get(target)
            if t is None:
                t = len(subsets)
                index[target] = t
                subsets.append(target)
            row.append(t)
        rows.append(tuple(row))
    dead = index.get(0)
    if dead is None:
        dead = len(subsets)
        subsets.append(0)
        rows.append((dead,) * core.n_symbols)
    return DenseDfa(
        n_symbols=core.n_symbols,
        subsets=tuple(subsets),
        trans=tuple(rows),
        initial=0,
        dead=dead,
    )


def _spread2(mask: int) -> int:
    """Bit ``i`` → bit ``2i`` (interleave room for a phase bit)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (2 * (low.bit_length() - 1))
        mask ^= low
    return out


def product_core(a: DenseBuchi, b: DenseBuchi) -> DenseBuchi:
    """The two-phase Büchi intersection product.

    State ``(p, q, phase)`` is index ``(p·n_b + q)·2 + phase``; *all*
    triples are enumerated (reachable or not), matching the classical
    construction.  Phase 0 waits for ``a`` to accept, phase 1 for ``b``;
    accepting = phase 1 with ``q`` accepting in ``b``.
    """
    if a.n_symbols != b.n_symbols:
        raise ValueError("product needs a shared alphabet")
    n_a, n_b, k = a.n_states, b.n_states, a.n_symbols
    width = 2 * n_b
    accepting = 0
    for p in range(n_a):
        base = p * width
        for q in iter_bits(b.accepting):
            accepting |= 1 << (base + 2 * q + 1)
    succ_out = []
    for sym in range(k):
        a_row = a.succ[sym]
        b_spread = tuple(_spread2(m) for m in b.succ[sym])
        rows = []
        for p in range(n_a):
            p_acc = (a.accepting >> p) & 1
            targets_a = a_row[p]
            for q in range(n_b):
                q_acc = (b.accepting >> q) & 1
                brow = b_spread[q]
                if not targets_a or not brow:
                    rows.append(0)
                    rows.append(0)
                    continue
                for phase in (0, 1):
                    next_phase = p_acc if phase == 0 else 1 - q_acc
                    shifted = brow << next_phase
                    target = 0
                    for pn in iter_bits(targets_a):
                        target |= shifted << (pn * width)
                    rows.append(target)
        succ_out.append(tuple(rows))
    return DenseBuchi(
        n_states=2 * n_a * n_b,
        n_symbols=k,
        initial=(a.initial * n_b + b.initial) * 2,
        succ=tuple(succ_out),
        accepting=accepting,
    )


def union_core(a: DenseBuchi, b: DenseBuchi) -> DenseBuchi:
    """Disjoint union behind a fresh initial state.

    Index 0 is the fresh (non-accepting) initial state simulating both
    original initial states; ``a``'s states sit at ``1..n_a``, ``b``'s
    at ``n_a+1..n_a+n_b``.
    """
    if a.n_symbols != b.n_symbols:
        raise ValueError("union needs a shared alphabet")
    shift_a, shift_b = 1, 1 + a.n_states
    succ_out = []
    for sym in range(a.n_symbols):
        a_row, b_row = a.succ[sym], b.succ[sym]
        rows = [(a_row[a.initial] << shift_a) | (b_row[b.initial] << shift_b)]
        rows.extend(m << shift_a for m in a_row)
        rows.extend(m << shift_b for m in b_row)
        succ_out.append(tuple(rows))
    return DenseBuchi(
        n_states=1 + a.n_states + b.n_states,
        n_symbols=a.n_symbols,
        initial=0,
        succ=tuple(succ_out),
        accepting=(a.accepting << shift_a) | (b.accepting << shift_b),
    )


def reindexed(
    core: DenseBuchi, order, accepting: int | None = None
) -> DenseBuchi:
    """The sub-core on the states ``order`` lists, state ``order[i]``
    renumbered ``i``: a permutation when ``order`` lists every state, a
    restriction (masks keep listed states only) otherwise.  ``order``
    must hold the initial state; ``accepting`` (in ``core``'s numbering)
    replaces ``core.accepting``."""
    bit = [0] * core.n_states
    for i, q in enumerate(order):
        bit[q] = 1 << i

    def moved(masks) -> tuple:
        out = []
        for mask in masks:
            if not mask & (mask - 1):  # no state or one: the common case
                out.append(bit[mask.bit_length() - 1] if mask else 0)
                continue
            new = 0
            while mask:
                low = mask & -mask
                new |= bit[low.bit_length() - 1]
                mask ^= low
            out.append(new)
        return tuple(out)

    return DenseBuchi(
        n_states=len(order),
        n_symbols=core.n_symbols,
        initial=bit[core.initial].bit_length() - 1,
        succ=tuple(moved([row[q] for q in order]) for row in core.succ),
        accepting=moved(
            [core.accepting if accepting is None else accepting]
        )[0],
    )


def simulation_masks(core: DenseBuchi) -> tuple:
    """The largest direct-simulation relation, as per-state masks:
    bit ``q`` of ``result[p]`` means ``q`` simulates ``p``.

    Greatest-fixpoint refinement of the standard functional — the same
    unique relation the pairwise refinement computes, but on masks and
    driven by a worklist: a state is re-refined only after one of its
    successors' simulator sets shrank.  The states able to match a move
    into ``p'`` on ``a`` are the ``a``-predecessors of ``p'``'s
    simulators, one predecessor-mask union, cached until ``p'``'s
    simulators shrink.
    """
    n = core.n_states
    full = (1 << n) - 1
    acc = core.accepting
    succ = core.succ
    preds = [[0] * n for _ in succ]
    for pred, row in zip(preds, succ):
        for q in range(n):
            for r in iter_bits(row[q]):
                pred[r] |= 1 << q
    any_pred = [0] * n
    for pred in preds:
        for r in range(n):
            any_pred[r] |= pred[r]
    moves = [
        tuple((a, tuple(iter_bits(row[p]))) for a, row in enumerate(succ) if row[p])
        for p in range(n)
    ]
    # the first round in closed form: a simulator accepts where ``p``
    # does and moves on every symbol ``p`` moves on
    moving = [sum(1 << q for q in range(n) if row[q]) for row in succ]
    sim = []
    for p in range(n):
        mask = acc if (acc >> p) & 1 else full
        for a, _targets in moves[p]:
            mask &= moving[a]
        sim.append(mask)
    can_match: list[dict] = [{} for _ in preds]
    dirty = full
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        p = low.bit_length() - 1
        mask = sim[p]
        for a, targets in moves[p]:
            table = can_match[a]
            for pn in targets:
                m = table.get(pn)
                if m is None:
                    m = table[pn] = post(preds[a], sim[pn])
                mask &= m
                if not mask:
                    break
            if not mask:
                break
        if mask != sim[p]:
            sim[p] = mask
            for table in can_match:
                table.pop(p, None)
            dirty |= any_pred[p]
    return tuple(sim)


def cycle_win_mask(core: DenseBuchi, cycle, nodes: int | None = None) -> int:
    """States from which reading ``cycle^ω`` can visit an accepting
    state infinitely often — the winners of the lasso with empty prefix.

    One relation composition along the cycle (``f[q]`` = states
    reachable from ``q`` reading the cycle once, ``facc[q]`` = the same
    but passing an accepting state), then Tarjan on the composed
    ``f``-graph: a state wins iff it ``f``-reaches an SCC holding an
    ``facc`` edge that stays inside it.  Any accepting product cycle
    crosses cycle-position 0 every ``len(cycle)`` steps, so the
    position-0 granularity loses nothing — and the result depends only
    on the cycle, so callers can cache it across prefixes.

    ``nodes`` restricts the analysis to a successor-closed state set
    (typically the reachable mask — product cores enumerate mostly
    unreachable triples); states outside it are reported losing.
    """
    n = core.n_states
    acc = core.accepting
    if nodes is None:
        nodes = (1 << n) - 1
    deterministic = True
    for row in core.succ:
        for m in row:
            if m & (m - 1):
                deterministic = False
                break
        if not deterministic:
            break
    if deterministic:
        return _cycle_win_det(core, cycle, nodes)
    if len(cycle) == 1:
        # the composed relation IS the symbol's own successor table;
        # an facc edge is one into (or out of) an accepting state
        row = core.succ[cycle[0]]
        adj = row
        facc = [
            row[q] if (acc >> q) & 1 else row[q] & acc for q in range(n)
        ]
    else:
        f = []
        facc = []
        for q in range(n):
            bit = 1 << q
            f.append(bit if nodes & bit else 0)
            facc.append(bit & acc if nodes & bit else 0)
        for a in cycle:
            row = core.succ[a]
            new_f = []
            new_facc = []
            for q in range(n):
                cur = f[q]
                if cur:
                    new_f.append(post(row, cur))
                    new_facc.append(post(row, facc[q] | (cur & acc)))
                else:
                    new_f.append(0)
                    new_facc.append(0)
            f = new_f
            facc = new_facc
        adj = tuple(f)
    if not nodes & ~acc:
        # safety core (every analyzed state accepting): any infinite run
        # wins, so the winners are the greatest fixpoint of "has a
        # successor that survives" — no SCC machinery needed
        win = nodes
        changed = True
        while changed:
            changed = False
            m = win
            while m:
                low = m & -m
                m ^= low
                if not adj[low.bit_length() - 1] & win:
                    win ^= low
                    changed = True
        return win
    good = 0
    for component in scc_masks(adj, nodes):
        for q in iter_bits(component):
            if facc[q] & component:
                good |= component
                break
    if not good:
        return 0
    pred = [0] * n
    for q in iter_bits(nodes):
        targets = adj[q]
        bit = 1 << q
        while targets:
            low = targets & -targets
            pred[low.bit_length() - 1] |= bit
            targets ^= low
    win = good
    frontier = good
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= pred[low.bit_length() - 1]
            frontier ^= low
        frontier = new & ~win
        win |= frontier
    return win


def _cycle_win_det(core: DenseBuchi, cycle, nodes: int) -> int:
    """:func:`cycle_win_mask` on a deterministic core: each state has one
    run, so the composed graph is a partial function — follow each
    trajectory to its loop (or death) and check the loop for an
    accepting visit, no SCC machinery needed."""
    n = core.n_states
    acc = core.accepting
    succ = core.succ
    nxt = [-1] * n
    accv = [False] * n
    remaining = nodes
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        q = low.bit_length() - 1
        cur = q
        seen_acc = False
        for a in cycle:
            if (acc >> cur) & 1:
                seen_acc = True
            m = succ[a][cur]
            if not m:
                cur = -1
                break
            cur = m.bit_length() - 1
        if cur >= 0:
            nxt[q] = cur
            accv[q] = seen_acc
    # 0 = unknown, 1 = wins, 2 = loses, 3 = on the current path
    status = [0] * n
    win = 0
    remaining = nodes
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        q = low.bit_length() - 1
        if status[q]:
            continue
        path = []
        verdict = 2
        while True:
            if q < 0:
                break
            st = status[q]
            if st == 1 or st == 2:
                verdict = st
                break
            if st == 3:
                # closed a fresh loop: its verdict is its own acceptance
                i = path.index(q)
                good = False
                for p in path[i:]:
                    if accv[p]:
                        good = True
                        break
                verdict = 1 if good else 2
                break
            status[q] = 3
            path.append(q)
            q = nxt[q]
        for p in path:
            status[p] = verdict
        if verdict == 1:
            for p in path:
                win |= 1 << p
    return win


def lasso_accepts(core: DenseBuchi, prefix, cycle) -> bool:
    """Whether ``u · v^ω ∈ L(B)`` for symbol-index sequences ``u``/``v``:
    subset-step through the prefix, then intersect with the cycle's
    winning-state mask (computed on the reachable part only)."""
    current = 1 << core.initial
    for a in prefix:
        current = post(core.succ[a], current)
        if not current:
            return False
    return bool(current & cycle_win_mask(core, cycle, reachable_mask(core)))


def lcl_member(core: DenseBuchi, live: int, prefix, cycle) -> bool:
    """Membership of ``u · v^ω`` in ``lcl(L(B))``: every prefix of the
    word must keep a live state in the subset run.  The subset sequence
    along a lasso is eventually periodic, so the loop stops when the
    (cycle-position, subset-mask) pair repeats."""
    current = 1 << core.initial
    if not current & live:
        return False
    for a in prefix:
        current = post(core.succ[a], current)
        if not current & live:
            return False
    length = len(cycle)
    seen: set = set()
    position = 0
    while (position, current) not in seen:
        seen.add((position, current))
        current = post(core.succ[cycle[position]], current)
        position = (position + 1) % length
        if not current & live:
            return False
    return True
