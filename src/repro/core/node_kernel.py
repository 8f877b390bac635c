"""Per-node processing paradigm (paper §3.3, Figure 3, left).

"Per-node processing pulls the states of all the parent nodes of a given
node, combines them with the joint probability matrix for the edges linking
the parents with the child before combining the updates with the child
node's state to produce its new state."

Operationally: for each active node the kernel gathers every in-edge,
recomputes those edges' messages from the *snapshot* of the parents'
beliefs (Jacobi order — the whole sweep reads one consistent state), then
combines them with the node's prior.  No atomic accumulation is required,
at the price of data-dependent gathers ("these lookups occur in random
order, hampering effective caching").

:func:`node_sweep` is the per-call reference: every run sweeps through
:class:`repro.kernels.compiled.CompiledExecutor`, and the test suite
checks it bit for bit against this function.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import LoopyState
from repro.core.sweepstats import SweepStats

__all__ = ["node_sweep"]

_FSIZE = 4  # float32 bytes
_ISIZE = 8  # int64 index bytes


def node_sweep(
    state: LoopyState,
    active_nodes: np.ndarray,
    *,
    update_rule: str = "sum_product",
    semiring: str = "sum",
    damping: float = 0.0,
) -> tuple[np.ndarray, SweepStats]:
    """One sweep over ``active_nodes``; returns (per-node belief deltas, stats).

    Beliefs and stored messages are updated in place on ``state``.
    """
    stats = SweepStats()
    n_active = len(active_nodes)
    if n_active == 0:
        return np.empty(0, dtype=np.float32), stats

    edge_ids, _local_offsets = state.gather_in_edges(active_nodes)
    n_edges = len(edge_ids)
    b = state.b

    if update_rule == "broadcast":
        msgs = state.propagate_messages(edge_ids, semiring=semiring)
    elif update_rule == "sum_product":
        msgs = state.cavity_messages(edge_ids, semiring=semiring)
    else:
        raise ValueError(f"unknown update_rule {update_rule!r}")
    if damping > 0.0 and n_edges:
        msgs = state.damp_messages(edge_ids, msgs, damping)
    state.store_messages(edge_ids, msgs)
    deltas = state.recombine(active_nodes)

    # --- accounting (§3.3: gathers instead of atomics) -------------------
    stats.nodes_processed = n_active
    stats.edges_processed = n_edges
    # message math: b×b mat-vec per edge (2 flops per cell) + normalize
    stats.flops = n_edges * (2 * b * b + 2 * b) + n_active * (4 * b)
    # random access: parent belief vector + reverse message per edge —
    # two data-dependent gathers of one belief vector each (§3.3:
    # "these lookups occur in random order, hampering effective caching")
    stats.random_bytes = n_edges * (2 * b * _FSIZE)
    stats.random_accesses = n_edges * 2
    # streaming: read own prior/belief, write message + belief
    stats.sequential_bytes = (
        n_active * (3 * b * _FSIZE) + n_edges * (b * _FSIZE)
    )
    stats.atomic_ops = 0
    stats.reduction_elems = n_active
    stats.kernel_launches = 1
    return deltas, stats
