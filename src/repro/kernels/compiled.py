"""The compiled sweep executor: plan-time lowering, fused full sweeps.

Lowering happens once per :class:`~repro.core.state.LoopyState`: the
reverse-edge pairing masks, the per-chunk dirty-destination sets and the
large scratch buffers are computed up front, and every *full* sweep then
runs a fused gather → log-product → normalize → scatter → combine
program in **natural edge order** with zero per-sweep index
construction.  Partial sweeps (a shrunken work queue, a priority batch)
fall back to the interpreted kernel functions, which share every
numerical routine with the fast path — so the two executors are
bit-exact across all schedules by construction — and whose cost tracks
the active set, not the graph (DESIGN.md §13.6).

Why natural order is bit-exact
------------------------------
The interpreted node sweep processes edges in destination-CSR order
(``gather_in_edges(arange(n))`` returns exactly ``in_edge_ids``).  The
only order-sensitive operation in the whole sweep is the per-destination
float accumulation inside ``np.bincount`` (messages, potentials,
normalization and the combine are all row-independent).  ``in_edge_ids``
is produced by a *stable* argsort of ``dst``, so within each destination
bin the edge ids ascend — which is exactly the order a natural
(ascending edge id) traversal feeds ``bincount``.  Identical per-bin
addition order ⇒ identical float64 partial sums ⇒ identical float32
results.  Everything else is elementwise or row-wise, so dropping the
CSR permutation changes no bits while eliminating four permuted
``(m, b)`` copies, the ragged index build and the per-edge delta pass
the node paradigm discards anyway.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.edge_kernel import edge_sweep
from repro.core.node_kernel import node_sweep
from repro.core.state import TINY, LoopyState
from repro.core.sweepstats import SweepStats
from repro.kernels.executor import SweepExecutor
from repro.kernels.ir import (
    BufferOp,
    BufferSpec,
    KernelProgram,
    KernelVerificationError,
    check_buffers,
    verify_program,
)
from repro.telemetry import get_metrics

__all__ = ["CompiledExecutor"]

_FLOAT = np.float32
_FSIZE = 4
_ISIZE = 8

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


def _row_max(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row maxima of ``(k, b)`` — max is exactly associative, so the
    column pass matches ``mat.max(axis=1)`` for any width."""
    b = mat.shape[1]
    if b == 1:
        if out is None:
            return mat[:, 0].copy()
        out[...] = mat[:, 0]
        return out
    acc = np.maximum(mat[:, 0], mat[:, 1], out=out)
    for s in range(2, b):
        np.maximum(acc, mat[:, s], out=acc)
    return acc


def _row_abs_diff_sum(
    a: np.ndarray, b_: np.ndarray, diff: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """``np.abs(a - b_).sum(axis=1)`` through scratch, bit-identical for
    widths up to the pairwise block (wider falls back to the reduce)."""
    np.subtract(a, b_, out=diff)
    np.abs(diff, out=diff)
    return _row_sum(diff, out=total)


def _normalize_fast(mat: np.ndarray, total: np.ndarray) -> np.ndarray:
    """In-place :func:`normalize_rows` with a scratch row-sum buffer.

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


class _EdgeChunk:
    """One lowered chunk of the full-edge program (static per state)."""

    __slots__ = ("lo", "hi", "all_paired", "paired_idx", "rev_ids", "dirty")

    def __init__(self, state: LoopyState, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        rev = state.rev[lo:hi]
        paired = rev >= 0
        self.all_paired = bool(paired.all())
        self.paired_idx = None if self.all_paired else np.flatnonzero(paired)
        self.rev_ids = rev if self.all_paired else rev[self.paired_idx]
        mask = np.zeros(state.n, dtype=bool)
        mask[state.dst[lo:hi]] = True
        mask &= state.free_mask
        self.dirty = np.flatnonzero(mask)


class CompiledExecutor(SweepExecutor):
    """Fused gather–scatter executor, lowered once per state."""

    name = "compiled"

    def __init__(self, state: LoopyState, *, paradigm: str = "node", chunks: int = 8):
        start = time.perf_counter()
        self.paradigm = paradigm
        n, m, b = state.n, state.m, state.b

        # -- shared lowering ------------------------------------------------
        rev = state.rev
        paired = rev >= 0
        self._all_paired = bool(paired.all()) if m else False
        self._any_paired = bool(paired.any()) if m else False
        self._paired_idx = (
            None if self._all_paired else np.flatnonzero(paired)
        )
        self._rev_paired = (
            rev if self._all_paired else rev[self._paired_idx]
        )
        self._not_free = np.flatnonzero(~state.free_mask)
        self._has_observed = bool(len(self._not_free))
        self._all_nodes = np.arange(n, dtype=np.int64)
        self._all_edges = np.arange(m, dtype=np.int64)

        # -- scratch buffers (the lowered program never allocates (m, b)
        #    or (n, b) temporaries per sweep) --------------------------------
        self._raw = np.empty((m, b), dtype=_FLOAT)
        self._log_new = np.empty((m, b), dtype=_FLOAT)
        self._log_delta = np.empty((m, b), dtype=_FLOAT)
        self._logits = np.empty((n, b), dtype=_FLOAT)
        self._logits2 = np.empty((n, b), dtype=_FLOAT)
        self._source = np.empty((m, b), dtype=_FLOAT)
        self._back = np.empty((m, b), dtype=_FLOAT)
        self._edge_total = np.empty(m, dtype=_FLOAT)
        self._node_total = np.empty(n, dtype=_FLOAT)
        self._node_rowbuf = np.empty(n, dtype=_FLOAT)

        # -- edge-paradigm lowering: chunk boundaries + dirty sets ---------
        self._chunks = max(1, min(chunks, m)) if m else 1
        self._edge_chunks: list[_EdgeChunk] = []
        self._touched_full = np.empty(0, dtype=np.int64)
        if paradigm == "edge" and m:
            bounds = np.linspace(0, m, self._chunks + 1, dtype=np.int64)
            touched = np.zeros(n, dtype=bool)
            for k in range(self._chunks):
                chunk = _EdgeChunk(state, int(bounds[k]), int(bounds[k + 1]))
                self._edge_chunks.append(chunk)
                if len(chunk.dirty):
                    touched[chunk.dirty] = True
            self._touched_full = np.flatnonzero(touched)

        # -- buffer-op IR: describe the lowered program and verify it
        #    statically before the first sweep runs --------------------------
        self.programs = self._emit_programs(state)
        for program in self.programs.values():
            verify_program(program)

        self.build_seconds = time.perf_counter() - start
        get_metrics().histogram("kernel.build_s").record(self.build_seconds)

    # ------------------------------------------------------------------
    def _emit_programs(self, state: LoopyState) -> dict[str, KernelProgram]:
        """The lowered sweep as buffer-op IR (see :mod:`repro.kernels.ir`).

        One program per lowered paradigm, mirroring the exact op order of
        the fast path below; :func:`~repro.kernels.ir.verify_program`
        checks it at plan time and :meth:`verify_buffers` re-checks the
        live arrays on demand.
        """
        pot_shape = ("b", "b") if state.shared_potential else ("m", "b", "b")
        buffers = [
            BufferSpec("beliefs", ("n", "b"), "float32", "state"),
            BufferSpec("messages", ("m", "b"), "float32", "state"),
            BufferSpec("log_messages", ("m", "b"), "float32", "state"),
            BufferSpec("log_msg_sum", ("n", "b"), "float32", "state"),
            BufferSpec("log_priors", ("n", "b"), "float32", "state"),
            BufferSpec("potentials", pot_shape, "float32", "state"),
            BufferSpec("src", ("m",), "int64", "state"),
            BufferSpec("dst", ("m",), "int64", "state"),
            BufferSpec("rev", ("m",), "int64", "state"),
            BufferSpec("raw", ("m", "b"), "float32", "scratch"),
            BufferSpec("log_new", ("m", "b"), "float32", "scratch"),
            BufferSpec("log_delta", ("m", "b"), "float32", "scratch"),
            BufferSpec("logits", ("n", "b"), "float32", "scratch"),
            BufferSpec("logits2", ("n", "b"), "float32", "scratch"),
            BufferSpec("source", ("m", "b"), "float32", "scratch"),
            BufferSpec("back", ("m", "b"), "float32", "scratch"),
            BufferSpec("edge_total", ("m",), "float32", "scratch"),
            BufferSpec("node_total", ("n",), "float32", "scratch"),
            BufferSpec("node_rowbuf", ("n",), "float32", "scratch"),
        ]
        message_ops = [
            BufferOp("gather_source", reads=("beliefs", "src"), writes=("source",)),
            BufferOp("gather_back", reads=("messages", "rev"), writes=("back",)),
            BufferOp("clamp_back", reads=("back",), writes=("back",), inplace_ok=True),
            BufferOp(
                "cavity_divide",
                reads=("source", "back"),
                writes=("source",),
                inplace_ok=True,
            ),
            BufferOp(
                "normalize_cavity",
                reads=("source",),
                writes=("source", "edge_total"),
                inplace_ok=True,
            ),
            BufferOp(
                "apply_potential", reads=("source", "potentials"), writes=("raw",)
            ),
            BufferOp(
                "normalize_messages",
                reads=("raw",),
                writes=("raw", "edge_total"),
                inplace_ok=True,
            ),
            BufferOp(
                "damp", reads=("raw", "messages"), writes=("raw",), inplace_ok=True
            ),
        ]
        scatter_ops = [
            BufferOp("log_messages_new", reads=("raw",), writes=("log_new",)),
            BufferOp(
                "log_delta", reads=("log_new", "log_messages"), writes=("log_delta",)
            ),
            BufferOp(
                "scatter_accumulate",
                reads=("log_delta", "dst", "log_msg_sum"),
                writes=("log_msg_sum",),
                inplace_ok=True,
            ),
            BufferOp("store_messages", reads=("raw",), writes=("messages",)),
            BufferOp("store_log_messages", reads=("log_new",), writes=("log_messages",)),
        ]
        if self.paradigm == "node":
            ops = (
                *message_ops,
                *scatter_ops,
                BufferOp(
                    "combine_logits",
                    reads=("log_priors", "log_msg_sum"),
                    writes=("logits",),
                ),
                BufferOp(
                    "shift_rowmax",
                    reads=("logits",),
                    writes=("logits", "node_rowbuf"),
                    inplace_ok=True,
                ),
                BufferOp(
                    "exp_normalize",
                    reads=("logits",),
                    writes=("logits", "node_total"),
                    inplace_ok=True,
                ),
                BufferOp("restore_observed", reads=("beliefs",), writes=("logits",)),
                # old beliefs double as the diff scratch: elementwise, so
                # reading beliefs while writing beliefs is declared in-place
                BufferOp(
                    "belief_delta",
                    reads=("logits", "beliefs"),
                    writes=("beliefs",),
                    inplace_ok=True,
                ),
                BufferOp("reduce_delta", reads=("beliefs",), writes=("node_deltas",)),
                BufferOp("writeback_beliefs", reads=("logits",), writes=("beliefs",)),
            )
            buffers.append(BufferSpec("node_deltas", ("n",), "float32", "local"))
            program = KernelProgram(
                name="node_full_sweep",
                buffers=tuple(buffers),
                ops=ops,
                outputs=("beliefs", "messages", "log_messages", "log_msg_sum"),
                meta={"paradigm": "node", "chunks": 1},
            )
            return {"node": program}
        # edge paradigm: per-chunk message + scatter, residuals through the
        # dead back-gather scratch, then the dirty-row combine
        ops = (
            *message_ops,
            BufferOp(
                "edge_residuals",
                reads=("raw", "messages"),
                writes=("back", "edge_deltas"),
            ),
            *scatter_ops,
            BufferOp(
                "gather_priors", reads=("log_priors", "dirty_nodes"), writes=("logits",)
            ),
            BufferOp(
                "gather_msg_sum",
                reads=("log_msg_sum", "dirty_nodes"),
                writes=("logits2",),
            ),
            BufferOp(
                "add_logits",
                reads=("logits", "logits2"),
                writes=("logits",),
                inplace_ok=True,
            ),
            BufferOp(
                "shift_rowmax",
                reads=("logits",),
                writes=("logits", "node_rowbuf"),
                inplace_ok=True,
            ),
            BufferOp(
                "exp_normalize",
                reads=("logits",),
                writes=("logits", "node_total"),
                inplace_ok=True,
            ),
            BufferOp(
                "scatter_beliefs", reads=("logits", "dirty_nodes"), writes=("beliefs",)
            ),
        )
        buffers.append(BufferSpec("edge_deltas", ("m",), "float32", "local"))
        # chunk dirty sets are lowered at plan time, so the program reads
        # them like state: initialized before the first op runs
        buffers.append(BufferSpec("dirty_nodes", ("?",), "int64", "state"))
        program = KernelProgram(
            name="edge_chunked_sweep",
            buffers=tuple(buffers),
            ops=ops,
            outputs=("beliefs", "messages", "log_messages", "log_msg_sum"),
            meta={"paradigm": "edge", "chunks": self._chunks},
        )
        return {"edge": program}

    # ------------------------------------------------------------------
    def verify_buffers(self, state: LoopyState) -> int:
        """Runtime IR check: live arrays vs the declared programs.

        Raises :class:`~repro.kernels.ir.KernelVerificationError` on any
        shape/dtype/alias mismatch; returns the number of buffers checked.
        """
        arrays = {
            "beliefs": state.beliefs,
            "messages": state.messages,
            "log_messages": state.log_messages,
            "log_msg_sum": state.log_msg_sum,
            "log_priors": state.log_priors,
            "potentials": state.potentials,
            "src": state.src,
            "dst": state.dst,
            "rev": state.rev,
            "raw": self._raw,
            "log_new": self._log_new,
            "log_delta": self._log_delta,
            "logits": self._logits,
            "logits2": self._logits2,
            "source": self._source,
            "back": self._back,
            "edge_total": self._edge_total,
            "node_total": self._node_total,
            "node_rowbuf": self._node_rowbuf,
        }
        dims = {"n": state.n, "m": state.m, "b": state.b}
        for program in self.programs.values():
            problems = check_buffers(program, arrays, dims)
            if problems:
                raise KernelVerificationError(program.name, problems)
        return len(arrays)

    # ------------------------------------------------------------------
    def _is_full_nodes(self, active: np.ndarray) -> bool:
        n = len(self._all_nodes)
        return (
            n > 0
            and len(active) == n
            and bool(active[0] == 0)
            and bool(active[-1] == n - 1)
            and bool(np.array_equal(active, self._all_nodes))
        )

    def _is_full_edges(self, active: np.ndarray) -> bool:
        m = len(self._all_edges)
        return (
            m > 0
            and len(active) == m
            and bool(active[0] == 0)
            and bool(active[-1] == m - 1)
            and bool(np.array_equal(active, self._all_edges))
        )

    # ------------------------------------------------------------------
    def _messages_natural(
        self,
        state: LoopyState,
        lo: int,
        hi: int,
        *,
        update_rule: str,
        semiring: str,
        all_paired: bool,
        paired_idx: np.ndarray | None,
        rev_ids: np.ndarray,
    ) -> np.ndarray:
        """Messages for the contiguous edge range ``[lo, hi)`` in natural
        order — the fused equivalent of ``cavity_messages`` /
        ``propagate_messages`` on an ``arange`` slice."""
        source = np.take(
            state.beliefs, state.src[lo:hi], axis=0, out=self._source[lo:hi]
        )
        total = self._edge_total[lo:hi]
        if update_rule == "sum_product":
            if all_paired:
                back = np.take(
                    state.messages, rev_ids, axis=0, out=self._back[lo:hi]
                )
                np.maximum(back, TINY, out=back)
                np.divide(source, back, out=source)
                source = _normalize_fast(source, total)
            elif paired_idx is not None and len(paired_idx):
                back = np.maximum(state.messages[rev_ids], TINY)
                source[paired_idx] = source[paired_idx] / back
                source = _normalize_fast(source, total)
        elif update_rule != "broadcast":
            raise ValueError(f"unknown update_rule {update_rule!r}")
        raw = self._apply_potential(state, source, lo, hi, semiring)
        return _normalize_fast(raw, total)

    def _apply_potential(
        self, state: LoopyState, source: np.ndarray, lo: int, hi: int, semiring: str
    ) -> np.ndarray:
        """``raw_e[c] = ⊕_b source_e[b] · J_e[b, c]`` over ``[lo, hi)``."""
        out = self._raw[lo:hi]
        if semiring == "sum":
            if state.shared_potential:
                np.matmul(source, state.potentials, out=out)
            else:
                np.einsum(
                    "eb,ebc->ec", source, state.potentials[lo:hi], out=out
                )
            return out
        if semiring != "max":
            raise ValueError(f"unknown semiring {semiring!r}")
        step = max(1, 1 << 16)
        for s in range(0, hi - lo, step):
            e = min(s + step, hi - lo)
            mats = (
                state.potentials
                if state.shared_potential
                else state.potentials[lo + s : lo + e]
            )
            out[s:e] = (source[s:e, :, None] * mats).max(axis=1)
        return out

    def _scatter_log_delta(
        self, state: LoopyState, lo: int, hi: int, msgs: np.ndarray
    ) -> None:
        """The fused ``store_messages`` scatter for ``[lo, hi)`` in natural
        order: log, delta, per-destination accumulate, write-back."""
        new_logs = self._log_new[lo:hi]
        np.log(np.maximum(msgs, TINY, out=new_logs), out=new_logs)
        log_delta = np.subtract(
            new_logs, state.log_messages[lo:hi], out=self._log_delta[lo:hi]
        )
        dsts = state.dst[lo:hi]
        for s in range(state.b):
            state.log_msg_sum[:, s] += np.bincount(
                dsts, weights=log_delta[:, s], minlength=state.n
            ).astype(_FLOAT)
        state.messages[lo:hi] = msgs
        state.log_messages[lo:hi] = new_logs

    def _combine_rows(self, state: LoopyState, nodes: np.ndarray) -> None:
        """``state.beliefs[nodes] = state.combine_nodes(nodes)`` through
        scratch — same op order as :meth:`LoopyState.combine_nodes`, so
        bitwise identical, but with ``np.take`` gathers instead of fancy
        indexing and column-loop reductions instead of axis-1 reduces."""
        k = len(nodes)
        logits = np.take(state.log_priors, nodes, axis=0, out=self._logits[:k])
        logits += np.take(
            state.log_msg_sum, nodes, axis=0, out=self._logits2[:k]
        )
        logits -= _row_max(logits, out=self._node_rowbuf[:k])[:, None]
        out = np.exp(logits, out=logits)
        _normalize_fast(out, self._node_total[:k])
        state.beliefs[nodes] = out

    # ------------------------------------------------------------------
    def node_sweep(self, state, active_nodes, *, update_rule="sum_product",
                   semiring="sum", damping=0.0):
        if self.paradigm != "node" or not self._is_full_nodes(active_nodes):
            return node_sweep(
                state, active_nodes,
                update_rule=update_rule, semiring=semiring, damping=damping,
            )
        stats = SweepStats()
        n, m, b = state.n, state.m, state.b

        if m:
            msgs = self._messages_natural(
                state, 0, m,
                update_rule=update_rule, semiring=semiring,
                all_paired=self._all_paired, paired_idx=self._paired_idx,
                rev_ids=self._rev_paired,
            )
            if damping > 0.0:
                msgs *= 1.0 - damping
                msgs += damping * state.messages
            # the node paradigm discards per-edge deltas, so the fused
            # program skips them entirely (the interpreted path computes
            # and drops them — no state depends on the difference)
            self._scatter_log_delta(state, 0, m, msgs)

        logits = np.add(state.log_priors, state.log_msg_sum, out=self._logits)
        logits -= _row_max(logits, out=self._node_rowbuf)[:, None]
        new = np.exp(logits, out=logits)
        new = _normalize_fast(new, self._node_total)
        old = state.beliefs
        if self._has_observed:
            new[self._not_free] = old[self._not_free]
        # old is dead after the delta, so it doubles as the diff scratch
        np.subtract(new, old, out=old)
        np.abs(old, out=old)
        deltas = _row_sum(old)
        state.beliefs[:] = new

        # accounting: identical to the interpreted kernel — the abstract
        # machine did the same math; only the dispatch fused
        stats.nodes_processed = n
        stats.edges_processed = m
        stats.flops = m * (2 * b * b + 2 * b) + n * (4 * b)
        stats.random_bytes = m * (2 * b * _FSIZE)
        stats.random_accesses = m * 2
        stats.sequential_bytes = n * (3 * b * _FSIZE) + m * (b * _FSIZE)
        stats.atomic_ops = 0
        stats.reduction_elems = n
        stats.kernel_launches = 1
        stats.fused_launches = 1
        return deltas, stats

    # ------------------------------------------------------------------
    def edge_sweep(self, state, active_edges, *, update_rule="sum_product",
                   semiring="sum", damping=0.0, chunks=8):
        usable = (
            self.paradigm == "edge"
            and max(1, min(chunks, len(active_edges))) == self._chunks
            and self._is_full_edges(active_edges)
        )
        if not usable:
            return edge_sweep(
                state, active_edges,
                update_rule=update_rule, semiring=semiring, damping=damping,
                chunks=chunks,
            )
        stats = SweepStats()
        n, m, b = state.n, state.m, state.b
        edge_deltas = np.empty(m, dtype=np.float32)

        for chunk in self._edge_chunks:
            lo, hi = chunk.lo, chunk.hi
            msgs = self._messages_natural(
                state, lo, hi,
                update_rule=update_rule, semiring=semiring,
                all_paired=chunk.all_paired, paired_idx=chunk.paired_idx,
                rev_ids=chunk.rev_ids,
            )
            if damping > 0.0:
                msgs *= 1.0 - damping
                msgs += damping * state.messages[lo:hi]
            old = state.messages[lo:hi]
            # back-message scratch is dead once msgs exist; reuse for diff
            _row_abs_diff_sum(
                msgs, old, self._back[lo:hi], edge_deltas[lo:hi]
            )
            self._scatter_log_delta(state, lo, hi, msgs)
            if len(chunk.dirty):
                self._combine_rows(state, chunk.dirty)
            stats.kernel_launches += 2
            stats.fused_launches += 1

        touched_nodes = self._touched_full
        n_touched = len(touched_nodes)
        stats.edges_processed = m
        stats.nodes_processed = n_touched
        stats.flops = m * (2 * b * b + 2 * b) + n_touched * (4 * b)
        stats.sequential_bytes = m * (2 * b * _FSIZE + 2 * _ISIZE)
        stats.random_bytes = m * (b * _FSIZE)
        stats.random_accesses = m
        stats.atomic_ops = m
        stats.reduction_elems = n_touched
        return edge_deltas, touched_nodes, stats
