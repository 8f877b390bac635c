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

from repro.core import indexset, logodds
from repro.core.graph import BeliefGraph
from repro.core.indexset import SlotMap
from repro.core.numeric import TINY32, safe_log

__all__ = ["LoopyState", "TINY", "matmul_rows", "normalize_rows"]

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


def matmul_rows(
    source: np.ndarray, matrix: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``source @ matrix``, each row rounded as in a many-row product.

    NumPy sends a one-row product to BLAS gemv and a longer one to gemm,
    and the two can add in different orders (OpenBLAS 0.3 on x86-64 does
    at b = 4: 219 of 300 random rows differ in the last bit).  A lone
    row would then round differently from the same row beside others,
    and a one-edge sweep would drift from the same edge swept in a
    batch.  A lone row is multiplied as two.
    """
    if len(source) == 1:
        row = np.matmul(np.repeat(source, 2, axis=0), matrix)[:1]
        if out is None:
            return row
        out[...] = row
        return out
    return np.matmul(source, matrix, out=out)


class LoopyState:
    """Flat arrays for one BP run over a uniform-width graph.

    Attributes
    ----------
    beliefs : (n, b) float32
        Current node beliefs (normalized rows).
    log_priors : (n, b) float32
        log of the clamp-adjusted priors (observed nodes are one-hot).
    messages, log_messages : (m, b) float32
        Current message along each directed edge (normalized rows) and
        its log; ``b != 2`` only.
    log_msg_sum : (n, b) float32
        Σ_in log m per node; ``b != 2`` only.
    msg_lo, msg_sum_lo, belief_lo : (m,), (n,), (n,) float32
        ``b == 2`` only (``binary``): each message as its log-odds
        ``log(m1 / m0)``, their sum per destination, and each node's
        belief log-odds, which the sweeps gather (see
        :mod:`repro.core.logodds`).  ``beliefs`` is kept in step.
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
    :meth:`_rebuild_log_msg_sum`).  At ``b == 2`` a uniform message has
    log-odds 0, so the start is all zeros.

    Read messages through :meth:`message_rows` and write them through
    :meth:`store_messages`; write beliefs through :meth:`recombine` or
    :meth:`set_beliefs`, which keep ``belief_lo`` in step.
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

        # Messages start uniform, so beliefs start from the priors with
        # the evidence clamped (what ``reset_beliefs`` leaves in a
        # graph): a converged graph's beliefs beside uniform messages
        # would count every neighbour's evidence twice.
        # ``priors`` is the graph's own array until the clamp copies it
        priors = graph.priors
        self.beliefs = priors.copy()
        observed = graph.observed
        if observed.any():
            states = graph.observed_state[observed]
            self.beliefs[observed] = 0.0
            self.beliefs[observed, states] = 1.0
            priors = priors.copy()
            priors[observed] = TINY
            priors[observed, states] = 1.0
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
        # Σ_in log m is maintained incrementally by the sweeps (this is the
        # accumulator the CUDA edge implementation updates atomically).
        self.binary = self.b == 2
        if self.binary:
            self.msg_lo = np.zeros(self.m, dtype=_FLOAT)
            self.msg_sum_lo = np.zeros(self.n, dtype=_FLOAT)
            self.belief_lo = logodds.from_rows(self.beliefs)
            self.lo_potentials, self.lo_floor = logodds.coefficients(
                self.potentials, self.shared_potential
            )
        else:
            self.messages = np.full((self.m, self.b), 1.0 / self.b, dtype=_FLOAT)
            self.log_messages = np.empty((self.m, self.b), dtype=_FLOAT)
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
        ``messages`` (``msg_lo`` at ``b == 2``) — for callers that load
        non-uniform messages."""
        if self.binary:
            self.msg_sum_lo[:] = np.bincount(
                self.dst, weights=self.msg_lo, minlength=self.n
            ).astype(_FLOAT)
            return
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
                return matmul_rows(source, self.potentials)
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

    def lo_coefficients(self, edges) -> tuple:
        """The closed-form potential coefficients ``(ψ00, ψ01, ψ10, ψ11)``
        of the edges ``edges`` (a slice or an index array): scalars for a
        shared potential, columns aligned with ``edges`` otherwise."""
        if self.shared_potential:
            return tuple(self.lo_potentials)
        rows = self.lo_potentials[edges]
        return rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]

    def propagate_messages(
        self, edge_ids: np.ndarray | None = None, semiring: str = "sum"
    ) -> np.ndarray:
        """m_e = src-belief · J_e for the given edges (broadcast rule).

        Returns normalized ``(len(edge_ids), b)`` messages — at
        ``b == 2`` their ``(len(edge_ids),)`` log-odds; does not store.
        """
        ids = np.arange(self.m, dtype=np.int64) if edge_ids is None else edge_ids
        if self.binary:
            cavity = self.belief_lo[self.src[ids]]
            return self._lo_message(cavity, ids, semiring)
        source = self.beliefs[self.src[ids]]
        raw = self._apply_potential(source, ids, semiring)
        return normalize_rows(raw)

    def cavity_messages(
        self, edge_ids: np.ndarray | None = None, semiring: str = "sum"
    ) -> np.ndarray:
        """Sum-product messages: exclude the reverse message from the
        source belief before applying the potential (at ``b == 2``,
        subtract its log-odds)."""
        ids = np.arange(self.m, dtype=np.int64) if edge_ids is None else edge_ids
        rev = self.rev[ids]
        paired = rev >= 0
        if self.binary:
            cavity = self.belief_lo[self.src[ids]]
            if paired.any():
                cavity[paired] -= self.msg_lo[rev[paired]]
            return self._lo_message(cavity, ids, semiring)
        source = self.beliefs[self.src[ids]].astype(_FLOAT)
        if paired.any():
            back = np.maximum(self.messages[rev[paired]], TINY)
            cavity = source.copy()
            cavity[paired] = source[paired] / back
            source = normalize_rows(cavity)
        raw = self._apply_potential(source, ids, semiring)
        return normalize_rows(raw)

    def _lo_message(self, cavity: np.ndarray, ids, semiring: str) -> np.ndarray:
        coef = self.lo_coefficients(ids)
        return logodds.message(cavity, coef, semiring, self.lo_floor, out=np.empty_like(cavity))

    def damp_messages(self, edge_ids, msgs: np.ndarray, damping: float) -> np.ndarray:
        """``(1 − damping)·msgs + damping·stored``, mixed as probabilities
        in either layout."""
        if self.binary:
            return logodds.damp(msgs, self.msg_lo[edge_ids], damping)
        return (1.0 - damping) * msgs + damping * self.messages[edge_ids]

    def combined_lo(self, nodes) -> np.ndarray:
        """``b == 2``: belief log-odds of ``nodes`` (a slice or an index
        array) from the priors and the in-message sums."""
        priors = self.log_priors[nodes]
        lo = np.subtract(priors[:, 1], priors[:, 0])
        lo += self.msg_sum_lo[nodes]
        return lo

    def combine_full(self) -> np.ndarray:
        """Beliefs of *all* nodes from priors and log-message sums
        (Algorithm 1 lines 10–11: combine_updates + marginalize)."""
        return self.combine_nodes(slice(None))

    def combine_nodes(self, nodes) -> np.ndarray:
        """Beliefs of the given nodes only."""
        if self.binary:
            return logodds.belief_rows(self.combined_lo(nodes))
        logits = self.log_priors[nodes] + self.log_msg_sum[nodes]
        logits -= logits.max(axis=1, keepdims=True)
        out = np.exp(logits, dtype=_FLOAT)
        return normalize_rows(out, out=out)

    def recombine(self, nodes: np.ndarray) -> np.ndarray:
        """Recompute and store the beliefs of the free nodes among
        ``nodes`` (observed nodes keep theirs); returns every node's L1
        belief change."""
        old = self.beliefs[nodes]
        if self.binary:
            lo = self.combined_lo(nodes)
            new = logodds.belief_rows(lo)
        else:
            new = self.combine_nodes(nodes)
        free = self.free_mask[nodes]
        new[~free] = old[~free]
        deltas = np.abs(new - old).sum(axis=1).astype(np.float32)
        self.beliefs[nodes] = new
        if self.binary:
            self.belief_lo[nodes[free]] = lo[free]
        return deltas

    def set_beliefs(self, nodes, rows: np.ndarray) -> None:
        """Overwrite the beliefs of ``nodes`` with probability ``rows``
        (evidence, warm starts)."""
        self.beliefs[nodes] = rows
        if self.binary:
            self.belief_lo[nodes] = logodds.from_rows(self.beliefs[nodes])

    def store_messages(self, edge_ids: np.ndarray, new_msgs: np.ndarray) -> np.ndarray:
        """Write messages and incrementally update the per-node log-sums.

        The scatter-add mirrors the atomic accumulation of the CUDA edge
        kernel: each edge adds ``log m_new − log m_old`` into its
        destination row.  Returns the per-edge L1 message change (the
        quantity the edge-paradigm work queue filters on).

        ``new_msgs`` is in the state's layout: ``(k, b)`` rows, or at
        ``b == 2`` ``(k,)`` log-odds.

        A small edge set scatters into its compacted destinations, so
        the cost is O(len(edge_ids)) rather than O(n); either path feeds
        each destination's float64 accumulation the same edges in the
        same order, so the sums are bit-identical.
        """
        if self.binary:
            old = self.msg_lo[edge_ids]
            deltas = logodds.deltas(new_msgs, old)
            self.scatter_log_delta(self.dst[edge_ids], new_msgs - old)
            self.msg_lo[edge_ids] = new_msgs
            return deltas
        old = self.messages[edge_ids]
        deltas = np.abs(new_msgs - old).sum(axis=1)
        new_logs = safe_log(new_msgs, TINY)
        log_delta = new_logs - self.log_messages[edge_ids]
        self.scatter_log_delta(self.dst[edge_ids], log_delta)
        self.messages[edge_ids] = new_msgs
        self.log_messages[edge_ids] = new_logs
        return deltas

    def scatter_log_delta(
        self,
        dsts: np.ndarray,
        log_delta: np.ndarray,
        rows: np.ndarray | None = None,
        ranks: tuple | None = None,
    ) -> None:
        """``log_msg_sum[dsts[i]] += log_delta[i]`` for every row i
        (``msg_sum_lo`` and one value per row at ``b == 2``).

        Each destination's float64 accumulation sees its rows in the
        order given, whichever path runs: compacted destinations for a
        small set, one ``bincount(minlength=n)`` per state otherwise,
        or — when the compiled executor passes ``ranks``, a b ≥ 3 edge
        range's in-edge rank plan and a free float32 block — whole
        ``(k, b)`` rows, one pass per in-edge rank
        (:class:`repro.kernels.compiled._InEdgeRanks`).
        ``rows``, when the caller already holds it, is
        ``np.unique(dsts)``; a small set then finds each row's bin by
        ``searchsorted`` instead of deduplicating ``dsts`` again.
        """
        if ranks is not None:
            plan, scratch = ranks
            plan.scatter(self.log_msg_sum, log_delta, scratch)
            return
        if self.binary:
            sums = self.msg_sum_lo
            columns = ((sums, log_delta),)
        else:
            sums = self.log_msg_sum
            columns = tuple((sums[:, s], log_delta[:, s]) for s in range(self.b))
        if indexset.is_sparse(len(dsts), self.n):
            if rows is None:
                rows, inv = self.node_slots.compact(dsts)
            else:
                inv = rows.searchsorted(dsts) if len(rows) < len(dsts) else None
            if inv is None:
                # one edge per destination: bincount's float64 sum of a
                # single float32 weight is that weight, so a plain
                # row add gives the same bits
                sums[dsts] += log_delta
            else:
                for acc, weights in columns:
                    acc[rows] += np.bincount(
                        inv, weights=weights, minlength=len(rows)
                    ).astype(_FLOAT)
        else:
            for acc, weights in columns:
                acc += np.bincount(dsts, weights=weights, minlength=self.n).astype(_FLOAT)

    def message_rows(self, edge_ids=None) -> np.ndarray:
        """The stored messages of ``edge_ids`` (all by default) as
        ``(k, b)`` probability rows, in either layout."""
        ids = slice(None) if edge_ids is None else edge_ids
        if self.binary:
            return logodds.belief_rows(self.msg_lo[ids])
        return self.messages[ids].copy()

    def adopt_messages(self, old: "LoopyState", edge_map: np.ndarray) -> None:
        """Carry ``old``'s messages over to this state's edges:
        ``edge_map[e]`` is old edge ``e``'s id here, or −1 if it is gone.
        The per-node sums are rebuilt from the result."""
        kept_old = np.flatnonzero(edge_map >= 0)
        if not len(kept_old):
            return
        if self.binary:
            self.msg_lo[edge_map[kept_old]] = old.msg_lo[kept_old]
        else:
            self.messages[edge_map[kept_old]] = old.messages[kept_old]
        self._rebuild_log_msg_sum()

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
        ends = self.out_offsets[nodes + 1]
        sizes = ends - self.out_offsets[nodes]
        # position j of the concatenation, in node i's segment, reads CSR
        # slot j + (ends[i] − cum[i]), cum being the running segment total
        cum = sizes.cumsum()
        total = int(cum[-1]) if len(cum) else 0
        if total == 0:
            return np.empty(0, dtype=np.int64)
        positions = np.arange(total)
        positions += (ends - cum).repeat(sizes)
        return self.out_edge_ids[positions]

    def export_beliefs(self) -> None:
        """Copy the beliefs back into the graph's belief array."""
        np.copyto(self.graph.beliefs, self.beliefs)
