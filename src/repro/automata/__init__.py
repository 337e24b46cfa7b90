"""The dense automaton kernel: int-indexed, bitset-backed cores.

One interner, one dense representation, one set of bitset kernels —
the performance layer under every Büchi/Rabin hot path (DESIGN.md §9).
Outside this package only ``repro.buchi`` and ``repro.rabin`` may
import it (checks rule RC007); everyone else uses the public facades,
which intern once, run the kernels, and unintern the results.
"""

from .dense import DenseBuchi, DenseDfa, DenseForm
from .interner import Interner
from .kernel import (
    adjacency,
    cycle_win_mask,
    is_cyclic_scc,
    iter_bits,
    lasso_accepts,
    lcl_member,
    live_mask,
    post,
    product_core,
    reachable_mask,
    reindexed,
    scc_masks,
    simulation_masks,
    subset_dfa,
    union_core,
)

__all__ = [
    "Interner",
    "DenseBuchi",
    "DenseDfa",
    "DenseForm",
    "iter_bits",
    "post",
    "reachable_mask",
    "reindexed",
    "adjacency",
    "scc_masks",
    "is_cyclic_scc",
    "live_mask",
    "subset_dfa",
    "product_core",
    "union_core",
    "simulation_masks",
    "cycle_win_mask",
    "lasso_accepts",
    "lcl_member",
]
