"""Per-edge processing paradigm (paper §3.3, Figure 3, right).

"Each edge pulls the current state of the parent node and combines it with
the joint probability matrix along the edge and the child node's state to
produce the new state of the child node. ... a child node may have many
parents and thus must combine each edge's contribution to its new state
atomically to avoid race conditions."

Operationally the sweep walks the active edges in chunks; each chunk
recomputes its messages from the *current* beliefs (so later chunks observe
the effect of earlier ones — the freshness that lets the paper's edge
versions "converge in only a few iterations", §4.2), scatter-adds the
log-message deltas into the destination accumulators (the atomic combine)
and refreshes the beliefs of the touched destinations.

The freshness contract: a sweep runs in *at most* ``chunks`` chunks,
each of at least :data:`MIN_CHUNK_EDGES` edges (a smaller sweep is one
chunk).  A chunk costs a fixed ~40 NumPy calls however few edges it
holds, so the floor keeps a partial sweep of a few dozen edges from
paying that eight times for freshness a few edges wide.  A sweep of at
least ``chunks * MIN_CHUNK_EDGES`` edges — every full sweep of the
benchmark and Table 1 graphs — runs ``chunks`` equal chunks.
:func:`chunk_slices` is the one source of boundaries for
:func:`edge_sweep`, the compiled executor and the serve layer's union
batching, so all three stay bit-exact with each other.

:func:`edge_sweep` is the per-call reference: every run sweeps through
:class:`repro.kernels.compiled.CompiledExecutor`, and the test suite
checks it bit for bit against this function.

A sweep costs O(active edges), not O(nodes + edges): destination sets are
index sets built through the state's slot map
(:class:`~repro.core.indexset.SlotMap`) and the scatter accumulates into
compacted destinations, unless the chunk is large (about n/12 edges) or
the graph small enough that one dense n-length pass is cheaper (see
:mod:`repro.core.indexset`).  Both paths feed every destination the same edges in the same
order and visit nodes in ascending id order, so the choice changes no
bits (DESIGN.md §13.6).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.state import LoopyState
from repro.core.sweepstats import SweepStats

__all__ = ["MIN_CHUNK_EDGES", "chunk_slices", "edge_sweep"]

_FSIZE = 4
_ISIZE = 8

#: The fewest edges a chunk of a split sweep holds.  Measured on the
#: ``stream-churn`` updates and the ``serve-mixed`` model over
#: C ∈ {16, 32, 64, 128, 256}: the smallest C within 5% of the fastest
#: on both (DESIGN.md §13.6).  A smaller C keeps more Gauss–Seidel
#: freshness.
MIN_CHUNK_EDGES = 256


@lru_cache(maxsize=256)
def chunk_slices(n_active: int, chunks: int) -> tuple[tuple[int, int], ...]:
    """``(lo, hi)`` bounds of the chunks of an ``n_active``-edge sweep:
    at most ``chunks`` of them, in order, each of at least
    :data:`MIN_CHUNK_EDGES` edges unless there is only one.

    The bounds are ``floor(i * n_active / k)``, the integer
    ``linspace``, for the largest ``k <= chunks`` the floor allows.
    Memoized: a partial sweep's set-up must not cost more than its few
    edges, and the small sizes recur sweep after sweep.
    """
    if n_active == 0:
        return ()
    k = max(1, min(chunks, n_active // MIN_CHUNK_EDGES))
    bounds = [i * n_active // k for i in range(k + 1)]
    return tuple(zip(bounds[:-1], bounds[1:]))


def edge_sweep(
    state: LoopyState,
    active_edges: np.ndarray,
    *,
    update_rule: str = "sum_product",
    semiring: str = "sum",
    damping: float = 0.0,
    chunks: int = 8,
) -> tuple[np.ndarray, np.ndarray, SweepStats]:
    """One sweep over ``active_edges``.

    Returns ``(edge_deltas, touched_nodes, stats)``: the L1 message change
    per active edge (queue filter), the destination nodes whose beliefs
    were recomputed, and the operation counts.
    """
    stats = SweepStats()
    n_active = len(active_edges)
    if n_active == 0:
        return (
            np.empty(0, dtype=np.float32),
            np.empty(0, dtype=np.int64),
            stats,
        )

    b = state.b
    edge_deltas = np.empty(n_active, dtype=np.float32)
    slots = state.node_slots
    touched: list[np.ndarray] = []

    for lo, hi in chunk_slices(n_active, chunks):
        chunk = active_edges[lo:hi]
        if update_rule == "broadcast":
            msgs = state.propagate_messages(chunk, semiring=semiring)
        elif update_rule == "sum_product":
            msgs = state.cavity_messages(chunk, semiring=semiring)
        else:
            raise ValueError(f"unknown update_rule {update_rule!r}")
        if damping > 0.0:
            msgs = state.damp_messages(chunk, msgs, damping)
        edge_deltas[lo:hi] = state.store_messages(chunk, msgs)

        dirty = slots.unique(state.dst[chunk])
        dirty = dirty[state.free_mask[dirty]]
        if len(dirty):
            state.recombine(dirty)
            touched.append(dirty)
        stats.kernel_launches += 2  # message kernel + combine kernel

    touched_nodes = slots.unique(*touched) if touched else np.empty(0, dtype=np.int64)

    # --- accounting (§3.3: atomics instead of gathers) --------------------
    n_touched = len(touched_nodes)
    stats.edges_processed = n_active
    stats.nodes_processed = n_touched
    stats.flops = n_active * (2 * b * b + 2 * b) + n_touched * (4 * b)
    # per edge: streaming reads of the stored message / adjacency entries
    # and the new-message write; one data-dependent gather of the source
    # belief vector
    stats.sequential_bytes = n_active * (2 * b * _FSIZE + 2 * _ISIZE)
    stats.random_bytes = n_active * (b * _FSIZE)
    stats.random_accesses = n_active
    # the defining cost (§3.3): the atomic combine into the destination
    # accumulator — one line-coalesced atomic transaction per edge under
    # the warp-per-edge mapping (the belief entries share a cache line)
    stats.atomic_ops = n_active
    stats.reduction_elems = n_touched
    return edge_deltas, touched_nodes, stats
