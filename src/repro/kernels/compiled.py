"""The compiled sweep executor: fused sweeps over any active set.

Lowering happens once per :class:`~repro.core.state.LoopyState` and is
cheap: it records the state's dimensions and whether every edge has a
reverse pair.  Every sweep — full or partial, node or edge paradigm —
then runs one fused program over an *edge range*::

    gather source beliefs → cavity divide → normalize → apply potential
    → normalize → [damp] → [residual] → log → store → scatter the log
    delta → combine the touched rows

An edge range is a slice of natural edge order when the sweep covers
every element, or a node sweep's active nodes hold every edge (only
isolated nodes left out), and an index array otherwise:

* a partial node sweep takes the active nodes' in-edges as ascending
  edge ids — ``flatnonzero(mask[dst])`` for a large active set, the
  CSR gather for a small one (:func:`repro.core.indexset.is_sparse`);
* a partial edge sweep takes each chunk of the active edges as given,
  exactly the chunks :func:`repro.core.edge_kernel.edge_sweep` walks;
  a batched run's sweep interleaves each replica's own chunks
  (:func:`_chunk_positions`).

At b = 2 the program runs on message log-odds instead
(:mod:`repro.core.logodds`, DESIGN.md §13.10): 1-D passes gather
``belief_lo[src] − msg_lo[rev]``, apply the closed-form 2×2 potential,
take one log, scatter the delta and combine through ``tanh``.

Scratch is sized by the range, not held at ``(m, b)`` for the life of
the plan: two ``(k, b)`` blocks per range (three ``(k,)`` vectors at
b = 2), each reused for dead values in turn.  The source gather becomes
the cavity, then the residual, then the new log messages, and once
those are stored the b ≥ 3 rank scatter's gather buffer; the
back-message gather becomes the message, then the log delta.

The scatter is :meth:`LoopyState.scatter_log_delta`, and an edge sweep
builds its destination set once (``np.unique`` of the active edges'
heads; the edge plan hands over the set it already holds).  A sweep of
one chunk reuses that set three times: its free nodes are the combine's
rows and the touched nodes returned, and a small range scatters into it
by ``searchsorted`` instead of deduplicating the heads again.  A chunk
of a longer sweep, and a node sweep's in-edge range, compact their
heads through the state's slot map; a large range takes one
``bincount`` over every node (:mod:`repro.core.indexset`).  Either way
a 7-edge chunk costs O(7), and each destination's float64 sum sees its
edges in range order, so the route changes no bits.

At b ≥ 3 a slice range — a full node sweep, or a chunk of a full edge
sweep — gathers instead of scattering, on a graph whose in-degrees are
all ≤ b (:class:`_InEdgeRanks`).  Its plan, built on the range's first
sweep and cached per executor, lists the r-th in-edge of every
destination that has one, for each rank r; the scatter adds whole
``(cnt_r, b)`` rows into a float64 block, one pass per rank, where
``bincount`` made b column passes over every node.  On the 160×160
8-state grid that is 4 passes instead of 8: 3.4–3.9 → 1.7–2.0 ms per
full sweep (medians of 60 calls, 2-core Xeon VM).  Index-array ranges,
and graphs with a node of more than b in-edges, keep ``bincount``.

Why the result is bit-exact
---------------------------
The compiled sweeps are checked bit for bit against the per-call
kernels :func:`repro.core.node_kernel.node_sweep` and
:func:`repro.core.edge_kernel.edge_sweep`, which the test suite keeps as
its reference.  The reference node sweep processes edges in
destination-CSR order (``gather_in_edges``).  The only order-sensitive
operation in the whole sweep is the per-destination float accumulation
inside ``np.bincount`` (messages, potentials, normalization and the
combine are all row-independent; the potential product goes through
:func:`~repro.core.state.matmul_rows`, so a row rounds the same however
many rows share its call).  ``in_edge_ids`` is produced by a *stable* argsort of
``dst``, so within each destination the CSR walk feeds edge ids in
ascending order — and so do a natural-order slice, ``flatnonzero`` of a
mask, the CSR gather itself and the in-edge ranks.  Identical per-bin
addition order ⇒
identical float64 partial sums ⇒ identical float32 results.  Everything
else runs the same ufuncs in the same order through scratch; the row
reductions reproduce NumPy's pairwise summation (:func:`_row_sum`).
The node paradigm discards per-edge deltas, so its program skips them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import indexset, logodds
from repro.core.edge_kernel import chunk_slices
from repro.core.state import TINY, LoopyState, matmul_rows
from repro.core.sweepstats import SweepStats
from repro.telemetry import get_metrics

__all__ = ["CompiledExecutor", "cached_executor", "make_executor"]

_FLOAT = np.float32
_FSIZE = 4
_ISIZE = 8

#: rows per max-product block: bounds the ``(rows, b, b)`` temporary
_MAX_BLOCK = 1 << 16

#: numpy's pairwise summation adds fewer than 8 elements left to right and
#: exactly 8 as the tree ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)) (its eight
#: unrolled accumulators folded pairwise), so explicit column adds in that
#: order are *bitwise identical* to ``.sum(axis=1)`` for belief widths up
#: to 8 — and an order of magnitude faster, because each column op is one
#: contiguous strided pass instead of a per-row reduce.  Wider rows reduce
#: through ``np.sum`` itself.
_PAIRWISE_BLOCK = 8


def _row_sum(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of ``(k, b)``, bit-identical to ``mat.sum(axis=1)``."""
    b = mat.shape[1]
    if b > _PAIRWISE_BLOCK:
        return np.sum(mat, axis=1, out=out)
    if b == 1:
        if out is None:
            return mat[:, 0].copy()
        out[...] = mat[:, 0]
        return out
    acc = np.add(mat[:, 0], mat[:, 1], out=out)
    if b == _PAIRWISE_BLOCK:
        acc += mat[:, 2] + mat[:, 3]
        high = np.add(mat[:, 4], mat[:, 5])
        high += mat[:, 6] + mat[:, 7]
        acc += high
        return acc
    for s in range(2, b):
        np.add(acc, mat[:, s], out=acc)
    return acc


def _row_max(mat: np.ndarray) -> np.ndarray:
    """Row maxima of ``(k, b)`` — max is exactly associative, so the
    column pass matches ``mat.max(axis=1)`` for any width."""
    b = mat.shape[1]
    if b == 1:
        return mat[:, 0].copy()
    acc = np.maximum(mat[:, 0], mat[:, 1])
    for s in range(2, b):
        np.maximum(acc, mat[:, s], out=acc)
    return acc


def _normalize_fast(mat: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """In-place :func:`normalize_rows`, optionally through a row-sum buffer.

    Same semantics bit for bit: all-zero rows become uniform, everything
    divides by its row total.
    """
    sums = _row_sum(mat, out=total)
    zero = sums <= 0
    if zero.any():
        mat[zero] = 1.0
        sums = _row_sum(mat, out=total)
    mat /= sums[:, None]
    return mat


def _rows(arr: np.ndarray, sel, out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``sel`` of ``arr``: a view for a slice, else gathered (into
    ``out`` when given).

    Gathers run ``ndarray.take(mode="wrap")``: the default mode
    bounds-checks and buffers ``out=``, 4.2 vs 2.4 ms for 800k rows.
    Every index reaching a gather is the state's own (edge ends, reverse
    ids, in-edges) or an active set a fancy index has already checked,
    and wrapping keeps a negative index's Python meaning.
    """
    if isinstance(sel, slice):
        return arr[sel]
    return arr.take(sel, axis=0, out=out, mode="wrap")


#: the opaque record dtype of each row width in bytes, built once
_RECORDS: dict[int, np.dtype] = {}


def _set_rows(arr: np.ndarray, sel, rows: np.ndarray) -> None:
    """``arr[sel] = rows`` for a C-contiguous ``(n, b)`` state array.

    An index array stores each row as one opaque record, a 1-D fancy
    store: 1.5 vs 13 ms for 700k rows at b = 2, about 2× at b = 8.
    Subclasses (the race detector's tracked views) keep their own
    ``__setitem__``.
    """
    if isinstance(sel, slice) or type(arr) is not np.ndarray:
        arr[sel] = rows
        return
    width = arr.itemsize * arr.shape[1]
    record = _RECORDS.get(width)
    if record is None:
        record = _RECORDS[width] = np.dtype((np.void, width))
    arr.view(record).reshape(-1)[sel] = np.ascontiguousarray(rows).view(record).reshape(-1)


#: a sweep reuses the previous sweep's blocks while they hold at most
#: this many times the rows it needs, and reallocates otherwise.  Fresh
#: blocks on every sweep cost a page fault per 4 KiB: 97,569 faults and
#: 800 vs 570 ms for a 160×160×8-state c-node:sync solve (41 full
#: sweeps; 2-core Xeon VM).  Dropping blocks once the active set shrinks
#: keeps a converged run from holding (m, b) scratch.
_SCRATCH_SLACK = 4


def _range_scratch(k: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The buffers one edge range runs through: two ``(k, b)`` blocks and
    a row-sum vector (see the module docstring for their roles)."""
    return (
        np.empty((k, b), dtype=_FLOAT),
        np.empty((k, b), dtype=_FLOAT),
        np.empty(k, dtype=_FLOAT),
    )


class _InEdgeRanks:
    """A slice range's in-edges by rank: the b ≥ 3 scatter's plan.

    ``nodes`` are the range's destinations by their in-degree within the
    range, descending and stable; ``edges[r]`` are the range positions of
    the r-th in-edge (ascending edge id) of each of the first
    ``len(edges[r])`` of them — the ones with more than r in-edges.  Both
    are int32: a 160×160 grid's whole-graph plan is 0.5 MiB.
    """

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: np.ndarray, edges: list[np.ndarray]):
        self.nodes = nodes
        self.edges = edges

    def scatter(self, sums: np.ndarray, log_delta: np.ndarray, scratch: np.ndarray) -> None:
        """``sums[dst] += log_delta`` over the range, bitwise the
        ``bincount`` route (:meth:`LoopyState.scatter_log_delta`).

        Each destination's float64 row accumulates ``0.0 + w1 + w2 + …``
        in range order, one rank per pass, as ``bincount``'s bin does;
        then one float32 add per row, as ``bincount``'s ``astype``
        followed by the column add.  A node with no in-edge in the range
        is left alone where ``bincount`` adds ``+0.0`` to it, the same
        bits because no sum ever holds −0.0.  ``scratch`` is a free
        float32 block of at least the range's rows.
        """
        k = len(self.nodes)
        acc = np.zeros((k, sums.shape[1]))
        for edges in self.edges:
            head = acc[: len(edges)]
            np.add(head, _rows(log_delta, edges, out=scratch[: len(edges)]), out=head)
        rows = _rows(sums, self.nodes, out=scratch[:k])
        np.add(rows, acc, out=rows, dtype=_FLOAT)
        _set_rows(sums, self.nodes, rows)


def _in_edge_ranks(state: LoopyState, lo: int, hi: int) -> _InEdgeRanks:
    """The rank plan of edges ``[lo, hi)``.

    The whole edge range reads the destination CSR (``in_edge_ids``, a
    stable argsort of ``dst``); a chunk argsorts its own heads, stably.
    """
    if (lo, hi) == (0, state.m):
        degree = np.diff(state.in_offsets)
        nodes = np.flatnonzero(degree)
        counts, starts, positions = degree[nodes], state.in_offsets[nodes], state.in_edge_ids
    else:
        heads = state.dst[lo:hi]
        positions = np.argsort(heads, kind="stable")
        heads = heads[positions]
        starts = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
        nodes = heads[starts]
        counts = np.diff(np.append(starts, hi - lo))
    top = int(counts.max())
    # a counting sort by degree: at most b passes over the destinations
    order = np.concatenate([np.flatnonzero(counts == d) for d in range(top, 0, -1)])
    counts, starts = counts[order], starts[order]
    edges = []
    for r in range(top):
        live = int(np.count_nonzero(counts > r))
        edges.append(positions[starts[:live] + r].astype(np.int32))
    return _InEdgeRanks(nodes[order].astype(np.int32), edges)


def _combine(state: LoopyState, nodes) -> np.ndarray:
    """New beliefs of rows ``nodes`` (slice or index array), bitwise
    :meth:`LoopyState.combine_nodes` with gathers and column passes."""
    if isinstance(nodes, slice):
        logits = np.add(state.log_priors[nodes], state.log_msg_sum[nodes])
    else:
        logits = _rows(state.log_priors, nodes)
        logits += _rows(state.log_msg_sum, nodes)
    logits -= _row_max(logits)[:, None]
    np.exp(logits, out=logits)
    return _normalize_fast(logits)


def _covers(active: np.ndarray, total: int) -> bool:
    """Is ``active`` exactly ``arange(total)``?"""
    return (
        len(active) == total
        and bool(active[0] == 0)
        and bool(active[-1] == total - 1)
        and bool(np.array_equal(active, np.arange(total)))
    )


def _chunk_positions(segments, chunks: int) -> list:
    """Positions into an active set, one entry per chunk of its sweep.

    ``segments`` are the lengths of consecutive runs of the set, one per
    replica of a batched run (:meth:`repro.core.loopy.LoopyBP.run_replicas`).
    Each run keeps the bounds :func:`chunk_slices` gives it alone, and
    chunk ``j`` sweeps the ``j``-th chunks of every run together: a
    slice when only one run has a ``j``-th chunk, an index array
    otherwise.  Replicas are disjoint, so each sees the freshness of its
    solo sweep chunk for chunk.
    """
    if len(segments) == 1:
        return [slice(lo, hi) for lo, hi in chunk_slices(segments[0], chunks)]
    starts = np.cumsum([0, *segments[:-1]]).tolist()
    bounds = [chunk_slices(length, chunks) for length in segments]
    positions = []
    for j in range(max(map(len, bounds))):
        runs = [
            (start + b[j][0], start + b[j][1])
            for start, b in zip(starts, bounds)
            if j < len(b)
        ]
        if len(runs) == 1:
            positions.append(slice(*runs[0]))
        else:
            positions.append(np.concatenate([np.arange(lo, hi) for lo, hi in runs]))
    return positions


class CompiledExecutor:
    """Fused gather–scatter executor over any active set.

    Bound to one :class:`LoopyState` at construction (that is where
    lowering happens); :meth:`node_sweep` and :meth:`edge_sweep` take
    the signatures of :func:`repro.core.node_kernel.node_sweep` and
    :func:`repro.core.edge_kernel.edge_sweep` and are bit-exact with
    them.  ``build_seconds`` reports the one-off lowering cost so
    profiling can separate kernel-build time from sweep time.
    """

    def __init__(self, state: LoopyState):
        start = time.perf_counter()
        self._dims = (state.n, state.m, state.b)
        self._blocks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._all_paired = bool((state.rev >= 0).all()) if state.m else False
        # The b ≥ 3 scatter's gate: slice ranges scatter by in-edge rank
        # when no node has more in-edges than bincount has columns, so the
        # route never runs more passes than the bincounts it replaces.
        # Each range's plan is built on its first sweep.
        self._rank_route = state.b >= 3 and state.m > 0 and (
            int(np.diff(state.in_offsets).max()) <= state.b
        )
        self._ranks: dict[tuple[int, int], _InEdgeRanks] = {}
        self.build_seconds = time.perf_counter() - start
        get_metrics().histogram("kernel.build_s").record(self.build_seconds)

    # ------------------------------------------------------------------
    def _scratch(self, k: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_range_scratch(k, b)``, reusing the last blocks that fit."""
        blocks = self._blocks
        if blocks is None or blocks[0].shape[1] != b or not (
            k <= len(blocks[2]) <= _SCRATCH_SLACK * k
        ):
            blocks = self._blocks = _range_scratch(k, b)
        return blocks[0][:k], blocks[1][:k], blocks[2][:k]

    def _sweep_range(
        self,
        state: LoopyState,
        edges,
        *,
        update_rule: str,
        semiring: str,
        damping: float,
        edge_deltas: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        """Recompute and store the messages of the edge range ``edges``
        (a slice or an index array): :meth:`LoopyState.cavity_messages`
        / ``propagate_messages``, damping and
        :meth:`LoopyState.store_messages` fused through two blocks.
        Writes per-edge residuals into ``edge_deltas`` when given;
        ``rows``, the range's distinct destinations when the caller
        holds them, goes to the scatter
        (:meth:`LoopyState.scatter_log_delta`)."""
        k = (edges.stop - edges.start) if isinstance(edges, slice) else len(edges)
        if state.binary:
            self._sweep_range_lo(
                state, edges, k, update_rule=update_rule, semiring=semiring,
                damping=damping, edge_deltas=edge_deltas, rows=rows,
            )
            return
        # two blocks, one name each, through every role they play:
        # cav  — source beliefs → cavity → residual → new log messages
        # msg  — back messages → new messages → log delta
        cav, msg, total = self._scratch(k, state.b)
        _rows(state.beliefs, state.src[edges], out=cav)
        if update_rule == "sum_product":
            rev = state.rev[edges]
            if self._all_paired:
                _rows(state.messages, rev, out=msg)
                back = np.maximum(msg, TINY, out=msg)
                np.divide(cav, back, out=cav)
                _normalize_fast(cav, total)
            else:
                paired = np.flatnonzero(rev >= 0)
                if len(paired):
                    back = np.maximum(state.messages[rev[paired]], TINY)
                    cav[paired] = cav[paired] / back
                    _normalize_fast(cav, total)
        elif update_rule != "broadcast":
            raise ValueError(f"unknown update_rule {update_rule!r}")

        self._apply_potential(state, cav, edges, semiring, out=msg)
        _normalize_fast(msg, total)
        if damping > 0.0:
            msg *= 1.0 - damping
            msg += damping * _rows(state.messages, edges)
        if edge_deltas is not None:
            np.subtract(msg, _rows(state.messages, edges, out=cav), out=cav)
            np.abs(cav, out=cav)
            _row_sum(cav, out=edge_deltas)

        np.log(np.maximum(msg, TINY, out=cav), out=cav)
        _set_rows(state.messages, edges, msg)
        np.subtract(cav, _rows(state.log_messages, edges, out=msg), out=msg)
        _set_rows(state.log_messages, edges, cav)
        # cav is free now: the rank route gathers through it
        ranks = self._in_edge_ranks(state, edges)
        state.scatter_log_delta(
            state.dst[edges], msg, rows, ranks=None if ranks is None else (ranks, cav)
        )

    def _in_edge_ranks(self, state: LoopyState, edges) -> _InEdgeRanks | None:
        """The rank plan of a slice range past the gate (see
        :class:`_InEdgeRanks`), else ``None``: the scatter then takes
        ``bincount``."""
        if not self._rank_route or not isinstance(edges, slice):
            return None
        key = (edges.start, edges.stop)
        ranks = self._ranks.get(key)
        if ranks is None:
            ranks = self._ranks[key] = _in_edge_ranks(state, *key)
        return ranks

    def _sweep_range_lo(
        self,
        state: LoopyState,
        edges,
        k: int,
        *,
        update_rule: str,
        semiring: str,
        damping: float,
        edge_deltas: np.ndarray | None,
        rows: np.ndarray | None,
    ) -> None:
        """:meth:`_sweep_range` at ``b == 2``: 1-D passes over message
        log-odds (:mod:`repro.core.logodds`), bitwise the reference
        ``cavity_messages`` / ``propagate_messages``, ``damp_messages``
        and ``store_messages``."""
        # three vectors: cav — cavity → old messages; msg — back
        # messages → new messages; aux — old-message tanh → log delta
        cav, msg, aux = self._scratch(k, 1)
        cav, msg = cav.reshape(k), msg.reshape(k)
        _rows(state.belief_lo, state.src[edges], out=cav)
        if update_rule == "sum_product":
            rev = state.rev[edges]
            if self._all_paired:
                cav -= _rows(state.msg_lo, rev, out=msg)
            else:
                paired = np.flatnonzero(rev >= 0)
                if len(paired):
                    cav[paired] -= state.msg_lo[rev[paired]]
        elif update_rule != "broadcast":
            raise ValueError(f"unknown update_rule {update_rule!r}")

        new = logodds.message(
            cav, state.lo_coefficients(edges), semiring, state.lo_floor, out=msg
        )
        old = _rows(state.msg_lo, edges, out=cav)
        if damping > 0.0:
            new = logodds.damp(new, old, damping)
        if edge_deltas is not None:
            logodds.deltas(new, old, out=edge_deltas, scratch=aux)
        np.subtract(new, old, out=aux)
        state.scatter_log_delta(state.dst[edges], aux, rows)
        state.msg_lo[edges] = new

    @staticmethod
    def _apply_potential(
        state: LoopyState, source: np.ndarray, edges, semiring: str, out: np.ndarray
    ) -> np.ndarray:
        """``out_e[c] = ⊕_b source_e[b] · J_e[b, c]`` over the range."""
        if semiring == "sum":
            if state.shared_potential:
                return matmul_rows(source, state.potentials, out=out)
            return np.einsum("eb,ebc->ec", source, _rows(state.potentials, edges), out=out)
        if semiring != "max":
            raise ValueError(f"unknown semiring {semiring!r}")
        mats = state.potentials if state.shared_potential else _rows(state.potentials, edges)
        for lo in range(0, len(source), _MAX_BLOCK):
            hi = min(lo + _MAX_BLOCK, len(source))
            block = mats if state.shared_potential else mats[lo:hi]
            out[lo:hi] = (source[lo:hi, :, None] * block).max(axis=1)
        return out

    # ------------------------------------------------------------------
    def node_sweep(self, state, active_nodes, *, update_rule="sum_product",
                   semiring="sum", damping=0.0):
        stats = SweepStats()
        n_active = len(active_nodes)
        if n_active == 0:
            return np.empty(0, dtype=np.float32), stats
        n, b = state.n, state.b

        if _covers(active_nodes, n):
            nodes, edges, n_edges = slice(None), slice(0, state.m), state.m
        else:
            nodes = active_nodes
            if indexset.is_sparse(n_active, n):
                edges = state.gather_in_edges(active_nodes)[0]
            else:
                mask = np.zeros(n, dtype=bool)
                mask[active_nodes] = True
                edges = np.flatnonzero(mask[state.dst])
            n_edges = len(edges)
            if n_edges == state.m:
                # every edge, ascending: only isolated nodes are missing
                # from the active set, and the slice is the same range
                edges = slice(0, state.m)
        if n_edges:
            self._sweep_range(
                state, edges,
                update_rule=update_rule, semiring=semiring, damping=damping,
            )

        if state.binary:
            lo = state.combined_lo(nodes)
            new = logodds.belief_rows(lo)
        else:
            new = _combine(state, nodes)
        old = _rows(state.beliefs, nodes)
        free = state.free_mask[nodes]
        all_free = bool(free.all())
        if not all_free:
            new[~free] = old[~free]
        # old is dead after the delta (a gathered copy, or the rows about
        # to be overwritten), so it doubles as the diff scratch
        np.subtract(new, old, out=old)
        np.abs(old, out=old)
        deltas = _row_sum(old)
        _set_rows(state.beliefs, nodes, new)
        if state.binary:
            if not all_free:
                np.copyto(lo, state.belief_lo[nodes], where=~free)
            state.belief_lo[nodes] = lo

        # accounting: identical to the reference kernel — the abstract
        # machine did the same math; only the dispatch fused
        stats.nodes_processed = n_active
        stats.edges_processed = n_edges
        stats.flops = n_edges * (2 * b * b + 2 * b) + n_active * (4 * b)
        stats.random_bytes = n_edges * (2 * b * _FSIZE)
        stats.random_accesses = n_edges * 2
        stats.sequential_bytes = n_active * (3 * b * _FSIZE) + n_edges * (b * _FSIZE)
        stats.atomic_ops = 0
        stats.reduction_elems = n_active
        stats.kernel_launches = 1
        return deltas, stats

    # ------------------------------------------------------------------
    def edge_sweep(self, state, active_edges, *, update_rule="sum_product",
                   semiring="sum", damping=0.0, chunks=8, segments=None, dests=None):
        """The edge sweep in chunks: :func:`_chunk_positions` of
        ``segments``, the lengths of consecutive runs of ``active_edges``
        (default: one run, the whole set).

        ``dests`` is the sorted set of the active edges' destinations
        (``np.unique(state.dst[active_edges])``), built here unless the
        caller already holds it.  It is the one destination set of the
        sweep: its free nodes are the touched nodes returned, and a
        sweep of one chunk combines exactly those rows and scatters
        into ``dests`` without deduplicating again.
        """
        n_active = len(active_edges)
        if n_active == 0:
            return (
                np.empty(0, dtype=np.float32),
                np.empty(0, dtype=np.int64),
                SweepStats(),
            )
        if dests is None:
            dests = state.node_slots.unique(state.dst[active_edges])
        touched = dests[state.free_mask[dests]]
        full = _covers(active_edges, state.m)
        edge_deltas = np.empty(n_active, dtype=np.float32)
        positions = _chunk_positions(segments or [n_active], chunks)
        single = len(positions) == 1

        for pos in positions:
            contiguous = isinstance(pos, slice)
            chunk = pos if full and contiguous else active_edges[pos]
            deltas = edge_deltas[pos] if contiguous else np.empty(len(pos), dtype=np.float32)
            self._sweep_range(
                state, chunk,
                update_rule=update_rule, semiring=semiring, damping=damping,
                edge_deltas=deltas, rows=dests if single else None,
            )
            if not contiguous:
                edge_deltas[pos] = deltas
            if single:
                dirty = touched
            else:
                dirty = state.node_slots.unique(state.dst[chunk])
                dirty = dirty[state.free_mask[dirty]]
            if len(dirty):
                if state.binary:
                    lo = state.combined_lo(dirty)
                    _set_rows(state.beliefs, dirty, logodds.belief_rows(lo))
                    state.belief_lo[dirty] = lo
                else:
                    _set_rows(state.beliefs, dirty, _combine(state, dirty))

        b, n_touched = state.b, len(touched)
        stats = SweepStats(
            nodes_processed=n_touched,
            edges_processed=n_active,
            flops=n_active * (2 * b * b + 2 * b) + n_touched * (4 * b),
            sequential_bytes=n_active * (2 * b * _FSIZE + 2 * _ISIZE),
            random_bytes=n_active * (b * _FSIZE),
            random_accesses=n_active,
            atomic_ops=n_active,
            reduction_elems=n_touched,
            kernel_launches=2 * len(positions),  # message + combine kernel per chunk
        )
        return edge_deltas, touched, stats


def make_executor(state: LoopyState) -> CompiledExecutor:
    """Lower a :class:`CompiledExecutor` against ``state``."""
    return CompiledExecutor(state)


def cached_executor(
    cache: dict | None,
    state: LoopyState,
    *,
    paradigm: str = "node",
    chunks: int = 8,
) -> CompiledExecutor:
    """:func:`make_executor`, memoized in ``cache`` (a plain dict) per
    ``(paradigm, chunks)``: each key's sweeps keep scratch sized for
    their own edge ranges.

    A lowering records the state's dimensions and reverse pairing, so a
    cached one is only sound while the state keeps its structure.  The
    incremental engine (:mod:`repro.stream.incremental`) owns the cache:
    evidence-only deltas mutate the state's rows in place and keep it;
    structural deltas rebuild the state and clear it.  ``cache=None``
    degrades to an uncached build.
    """
    if cache is None:
        return make_executor(state)
    key = (paradigm, chunks)
    executor = cache.get(key)
    if executor is None:
        executor = cache[key] = make_executor(state)
    return executor
