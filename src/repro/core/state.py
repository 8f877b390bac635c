"""Dense runtime state for the loopy-BP kernels.

The :class:`BeliefGraph` is the user-facing container; before running BP we
"compile" it into flat, contiguous arrays (the paper's compressed adjacency
lists plus dense belief/message matrices, §3.4) that the vectorized kernels
operate on.  All kernels share this state object, so the per-node and
per-edge paradigms differ only in traversal and accumulation order — exactly
the distinction the paper draws in §3.3.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.indexset import SlotMap
from repro.core.numeric import TINY32, safe_log

__all__ = ["LoopyState", "TINY", "normalize_rows"]

_FLOAT = np.float32

#: Floor applied before logarithms; preserves one-hot evidence to within
#: float32 resolution while keeping log-space arithmetic finite.
#: (Re-exported from :mod:`repro.core.numeric`, the single home of the
#: numerical-safety floors.)
TINY = TINY32


def normalize_rows(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize in place-ish; all-zero rows become uniform."""
    total = matrix.sum(axis=1, keepdims=True)
    width = matrix.shape[1]
    zero = total.reshape(-1) <= 0
    if zero.any():
        matrix = matrix.copy() if out is None else matrix
        matrix[zero] = 1.0
        total = matrix.sum(axis=1, keepdims=True)
    if out is None:
        return matrix / total
    np.divide(matrix, total, out=out)
    return out


class LoopyState:
    """Flat arrays for one BP run over a uniform-width graph.

    Attributes
    ----------
    beliefs : (n, b) float32
        Current node beliefs (normalized rows).
    log_priors : (n, b) float32
        log of the clamp-adjusted priors (observed nodes are one-hot).
    messages : (m, b) float32
        Current message along each directed edge (normalized rows).
    src, dst, rev : (m,) int64
        Directed edge endpoints and reverse-edge ids (−1 when unpaired).
    in_offsets, in_edge_ids : CSR by destination
        ``in_edge_ids[in_offsets[v]:in_offsets[v+1]]`` are the edges into v.
    potentials : (b, b) or (m, b, b) float32
        Shared matrix or per-edge stack.
    free_mask : (n,) bool
        Nodes whose beliefs BP may update (i.e. not observed).
    node_slots : SlotMap
        Scratch for deduplicating node sets in O(set size) — the
        scatter's destinations, a partial sweep's dirty rows.

    Every run starts from uniform messages, so the start's log messages
    are one value and each node's log-message sum depends only on its
    in-degree: the constructor fills both from a small table instead of
    taking ``m · b`` logs and ``b`` scatters (see
    :meth:`_start_log_msg_sum`; bit-identical to
    :meth:`_rebuild_log_msg_sum`).
    """

    def __init__(self, graph: BeliefGraph):
        if not graph.uniform:
            raise ValueError(
                "the vectorized kernels require constant-width beliefs; "
                "run heterogeneous graphs through the reference backend "
                "(see paper §2.2 on the shared-matrix refinement)"
            )
        self.graph = graph
        self.n = graph.n_nodes
        self.m = graph.n_edges
        self.b = graph.n_states

        self.beliefs = np.ascontiguousarray(graph.beliefs.dense(), dtype=_FLOAT)

        priors = np.ascontiguousarray(graph.priors.dense(), dtype=_FLOAT)
        observed = graph.observed
        if observed.any():
            priors = priors.copy()
            priors[observed] = TINY
            priors[observed, graph.observed_state[observed]] = 1.0
        self.log_priors = safe_log(priors, TINY)

        self.src = graph.src
        self.dst = graph.dst
        self.rev = graph.reverse_edge
        self.in_offsets = graph.in_offsets
        self.in_edge_ids = graph.in_edge_ids
        self.out_offsets = graph.out_offsets
        self.out_edge_ids = graph.out_edge_ids
        self.free_mask = ~observed
        self.node_slots = SlotMap(self.n)

        if self.m == 0:
            self.potentials = np.eye(self.b, dtype=_FLOAT)
            self.shared_potential = True
        elif graph.potentials.shared:
            self.potentials = np.ascontiguousarray(graph.potentials.matrix(0))
            self.shared_potential = True
        else:
            self.potentials = np.ascontiguousarray(graph.potentials.stacked())
            self.shared_potential = False

        # Uniform starting messages: every edge initially says "no opinion".
        self.messages = np.full((self.m, self.b), 1.0 / self.b, dtype=_FLOAT)
        self.log_messages = np.empty((self.m, self.b), dtype=_FLOAT)
        # Σ_in log m, maintained incrementally by the edge kernel (this is
        # the accumulator the CUDA edge implementation updates atomically).
        self.log_msg_sum = np.empty((self.n, self.b), dtype=_FLOAT)
        self._start_log_msg_sum()

    # ------------------------------------------------------------------
    def _start_log_msg_sum(self) -> None:
        """``log_messages`` and ``log_msg_sum`` of the uniform start, bit
        for bit what :meth:`_rebuild_log_msg_sum` computes, in O(n + m)
        writes and no logs or scatters.

        Every start message has the same log ``w``, so a node's sum is
        ``bincount``'s float64 fold of ``deg(v)`` copies of ``w`` — which
        depends on ``deg(v)`` alone.  ``cumsum`` folds the same way, one
        addition at a time, so entry ``d`` of a table over in-degrees is
        that sum, and one gather by in-degree fills every row.
        """
        start = np.full(1, 1.0 / self.b, dtype=_FLOAT)
        w = safe_log(start, TINY)[0]
        self.log_messages.fill(w)
        in_degree = np.diff(self.in_offsets)
        table = np.zeros(int(in_degree.max(initial=0)) + 1, dtype=np.float64)
        np.cumsum(np.full(len(table) - 1, w, dtype=np.float64), out=table[1:])
        self.log_msg_sum[:] = table.astype(_FLOAT)[in_degree][:, None]

    def _rebuild_log_msg_sum(self) -> None:
        """Recompute the log messages and their per-node sums from
        ``messages`` — for callers that load non-uniform messages."""
        self.log_messages = safe_log(self.messages, TINY)
        self.log_msg_sum[:] = 0.0
        if self.m:
            for s in range(self.b):
                self.log_msg_sum[:, s] = np.bincount(
                    self.dst, weights=self.log_messages[:, s], minlength=self.n
                ).astype(_FLOAT)

    def _apply_potential(
        self, source: np.ndarray, edge_ids: np.ndarray, semiring: str
    ) -> np.ndarray:
        """raw_e[c] = ⊕_b source_e[b] · J_e[b, c] for ⊕ ∈ {sum, max}."""
        if semiring == "sum":
            if self.shared_potential:
                return source @ self.potentials
            return np.einsum("eb,ebc->ec", source, self.potentials[edge_ids])
        if semiring != "max":
            raise ValueError(f"unknown semiring {semiring!r}")
        # Max-product (MAP) variant: chunked to bound the (chunk, b, b)
        # temporary for large edge sets.
        out = np.empty((len(source), self.b), dtype=_FLOAT)
        step = max(1, 1 << 16)
        for lo in range(0, len(source), step):
            hi = min(lo + step, len(source))
            mats = (
                self.potentials
                if self.shared_potential
                else self.potentials[edge_ids[lo:hi]]
            )
            out[lo:hi] = (source[lo:hi, :, None] * mats).max(axis=1)
        return out

    def propagate_messages(
        self, edge_ids: np.ndarray | None = None, semiring: str = "sum"
    ) -> np.ndarray:
        """m_e = src-belief · J_e for the given edges (broadcast rule).

        Returns normalized ``(len(edge_ids), b)`` messages; does not store.
        """
        ids = np.arange(self.m, dtype=np.int64) if edge_ids is None else edge_ids
        source = self.beliefs[self.src[ids]]
        raw = self._apply_potential(source, ids, semiring)
        return normalize_rows(raw)

    def cavity_messages(
        self, edge_ids: np.ndarray | None = None, semiring: str = "sum"
    ) -> np.ndarray:
        """Sum-product messages: exclude the reverse message from the
        source belief before applying the potential."""
        ids = np.arange(self.m, dtype=np.int64) if edge_ids is None else edge_ids
        source = self.beliefs[self.src[ids]].astype(_FLOAT)
        rev = self.rev[ids]
        paired = rev >= 0
        if paired.any():
            back = np.maximum(self.messages[rev[paired]], TINY)
            cavity = source.copy()
            cavity[paired] = source[paired] / back
            source = normalize_rows(cavity)
        raw = self._apply_potential(source, ids, semiring)
        return normalize_rows(raw)

    def combine_full(self) -> np.ndarray:
        """Beliefs of *all* nodes from priors and log-message sums
        (Algorithm 1 lines 10–11: combine_updates + marginalize)."""
        logits = self.log_priors + self.log_msg_sum
        logits -= logits.max(axis=1, keepdims=True)
        out = np.exp(logits, dtype=_FLOAT)
        return normalize_rows(out, out=out)

    def combine_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Beliefs of the given nodes only."""
        logits = self.log_priors[nodes] + self.log_msg_sum[nodes]
        logits -= logits.max(axis=1, keepdims=True)
        out = np.exp(logits, dtype=_FLOAT)
        return normalize_rows(out, out=out)

    def store_messages(self, edge_ids: np.ndarray, new_msgs: np.ndarray) -> np.ndarray:
        """Write messages and incrementally update the per-node log-sums.

        The scatter-add mirrors the atomic accumulation of the CUDA edge
        kernel: each edge adds ``log m_new − log m_old`` into its
        destination row.  Returns the per-edge L1 message change (the
        quantity the edge-paradigm work queue filters on).

        A small edge set scatters into its compacted destinations, so
        the cost is O(len(edge_ids)) rather than O(n); either path feeds
        each destination's float64 accumulation the same edges in the
        same order, so the sums are bit-identical.
        """
        old = self.messages[edge_ids]
        deltas = np.abs(new_msgs - old).sum(axis=1)
        new_logs = safe_log(new_msgs, TINY)
        log_delta = new_logs - self.log_messages[edge_ids]
        self.scatter_log_delta(self.dst[edge_ids], log_delta)
        self.messages[edge_ids] = new_msgs
        self.log_messages[edge_ids] = new_logs
        return deltas

    def scatter_log_delta(self, dsts: np.ndarray, log_delta: np.ndarray) -> None:
        """``log_msg_sum[dsts[i]] += log_delta[i]`` for every row i.

        Each destination's float64 accumulation sees its rows in the
        order given, whichever path runs: compacted destinations for a
        small set, one ``bincount(minlength=n)`` per state otherwise.
        """
        if self.node_slots.sparse(len(dsts)):
            rows, inv = self.node_slots.compact(dsts)
            if inv is None:
                # one edge per destination: bincount's float64 sum of a
                # single float32 weight is that weight, so a plain
                # row add gives the same bits
                self.log_msg_sum[rows] += log_delta
            else:
                for s in range(self.b):
                    self.log_msg_sum[rows, s] += np.bincount(
                        inv, weights=log_delta[:, s], minlength=len(rows)
                    ).astype(_FLOAT)
        else:
            for s in range(self.b):
                self.log_msg_sum[:, s] += np.bincount(
                    dsts, weights=log_delta[:, s], minlength=self.n
                ).astype(_FLOAT)

    def gather_in_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge ids entering each node of ``nodes``, concatenated, plus the
        local segment offsets (len(nodes)+1) into that concatenation."""
        starts = self.in_offsets[nodes]
        ends = self.in_offsets[nodes + 1]
        sizes = ends - starts
        local_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=local_offsets[1:])
        total = int(local_offsets[-1])
        if total == 0:
            return np.empty(0, dtype=np.int64), local_offsets
        # Vectorized ragged gather: positions = start[seg] + rank-in-segment.
        seg = np.repeat(np.arange(len(nodes)), sizes)
        rank = np.arange(total) - np.repeat(local_offsets[:-1], sizes)
        return self.in_edge_ids[starts[seg] + rank], local_offsets

    def gather_out_edges(self, nodes: np.ndarray) -> np.ndarray:
        """All edge ids originating at any node of ``nodes`` (concatenated)."""
        starts = self.out_offsets[nodes]
        sizes = self.out_offsets[nodes + 1] - starts
        total = int(sizes.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        seg_starts = np.repeat(starts, sizes)
        offsets = np.zeros(len(nodes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        rank = np.arange(total) - np.repeat(offsets, sizes)
        return self.out_edge_ids[seg_starts + rank]

    def export_beliefs(self) -> None:
        """Copy the dense beliefs back into the graph's belief store."""
        self.graph.beliefs.load_dense(self.beliefs)
