"""Chunked streaming loader for the dual-file MTX format (DESIGN.md §15).

The batch reader (:func:`repro.io.mtx.read_mtx_graph`) materializes the
full ``(m, 2)`` edge list — and, in per-edge mode, the full matrix stack
— before the graph exists.  At the paper's scale (hundreds of millions
of edges) that transient doubles peak memory.  This loader instead
appends the edge file chunk by chunk — through the same bulk body
reader, with the same checks — into :class:`StreamingGraphBuilder`,
whose structure arrays grow amortized (capacity doubling) and whose
live prefixes become the graph's arrays directly — zero copies at
build time, no intermediate edge list, and a bounded parse buffer of
``chunk_edges`` lines.

The builder is also the extension point for mutable models: seed it
with :meth:`StreamingGraphBuilder.from_graph`, append, and ``build()``
again.  Over-allocated capacity is reported through the graph's
``memory_footprint()["reserved"]`` entry rather than silently counted
as live data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.potentials import PerEdgePotentialStore, SharedPotentialStore
from repro.io.mtx import CHUNK_LINES, _edge_chunks, _read_nodes

__all__ = ["GrowableArray", "StreamingGraphBuilder", "load_graph_stream"]

_FLOAT = np.float32

#: default number of edge lines parsed per bulk append
DEFAULT_CHUNK_EDGES = CHUNK_LINES


class GrowableArray:
    """An amortized-growth numpy buffer (append/extend in O(1) amortized).

    ``view`` exposes the live prefix as a numpy view.  Growth allocates a
    fresh buffer, so views handed out before a regrow keep pointing at
    the old (still valid, fully populated) storage — a built graph is
    never mutated by later appends.
    """

    def __init__(self, shape_tail: tuple[int, ...] = (), dtype=np.int64, capacity: int = 16):
        self._shape_tail = tuple(int(s) for s in shape_tail)
        self._data = np.zeros((max(int(capacity), 1), *self._shape_tail), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return len(self._data)

    @property
    def view(self) -> np.ndarray:
        """Live prefix; a view, not a copy."""
        return self._data[: self._size]

    @property
    def slack_nbytes(self) -> int:
        """Bytes allocated beyond the live prefix."""
        return int(self._data[self._size :].nbytes)

    def reserve(self, capacity: int) -> None:
        """Grow storage to hold at least ``capacity`` rows."""
        if capacity <= len(self._data):
            return
        new_cap = max(int(capacity), 2 * len(self._data))
        grown = np.zeros((new_cap, *self._shape_tail), dtype=self._data.dtype)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, row) -> int:
        """Append one row; returns its index."""
        self.reserve(self._size + 1)
        self._data[self._size] = row
        self._size += 1
        return self._size - 1

    def extend(self, rows: np.ndarray) -> None:
        """Bulk-append ``rows`` (first axis is the row axis)."""
        rows = np.asarray(rows, dtype=self._data.dtype)
        if rows.shape[1:] != self._shape_tail:
            raise ValueError(
                f"row shape {rows.shape[1:]} != expected {self._shape_tail}"
            )
        self.reserve(self._size + len(rows))
        self._data[self._size : self._size + len(rows)] = rows
        self._size += len(rows)


class StreamingGraphBuilder:
    """Incrementally assemble a :class:`BeliefGraph` in bounded memory.

    Nodes and undirected edges append into growable arrays using the same
    directed-pair interleaving as :meth:`BeliefGraph.from_undirected`
    (``u→v`` at even ids with matrix ``J``, ``v→u`` at odd ids with
    ``Jᵀ``), so a streamed build is structurally bit-identical to the
    batch reader's result.

    Potential modes mirror the batch path: a symmetric shared matrix
    stays shared (§2.2); a non-symmetric shared matrix or any per-edge
    matrix switches the builder to an interleaved per-edge stack.
    """

    def __init__(
        self,
        n_states: int,
        *,
        layout: str = "aos",
        expect_nodes: int = 0,
        expect_edges: int = 0,
    ):
        if n_states < 1:
            raise ValueError("n_states must be positive")
        self.n_states = int(n_states)
        self.layout = layout
        b = self.n_states
        self._priors = GrowableArray((b,), _FLOAT, capacity=max(expect_nodes, 16))
        cap = max(2 * expect_edges, 16)
        self._src = GrowableArray((), np.int64, capacity=cap)
        self._dst = GrowableArray((), np.int64, capacity=cap)
        self._rev = GrowableArray((), np.int64, capacity=cap)
        #: per-edge matrix stack; ``None`` while in shared mode
        self._mats: GrowableArray | None = None
        self._shared: np.ndarray | None = None
        self._names: list[str] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: BeliefGraph) -> "StreamingGraphBuilder":
        """Seed a builder with an existing graph, ready for extension."""
        if not graph.uniform:
            raise ValueError("the streaming builder requires constant-width beliefs")
        builder = cls(
            max(graph.n_states, 1),
            layout=graph.layout,
            expect_nodes=graph.n_nodes,
            expect_edges=graph.n_edges // 2,
        )
        builder._priors.extend(graph.priors.dense())
        builder._src.extend(graph.src)
        builder._dst.extend(graph.dst)
        builder._rev.extend(graph.reverse_edge)
        if not graph.lazy_names:
            builder._names = list(graph.node_names)
        if graph.potentials.shared:
            if graph.n_edges:
                builder.set_shared_potential(graph.potentials.matrix(0))
        else:
            builder._mats = GrowableArray(
                (builder.n_states, builder.n_states),
                _FLOAT,
                capacity=max(graph.n_edges, 16),
            )
            builder._mats.extend(graph.potentials.stacked())
        return builder

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._priors)

    @property
    def n_edges(self) -> int:
        """Directed edge count (2× the undirected count)."""
        return len(self._src)

    @property
    def slack_nbytes(self) -> int:
        """Total over-allocated (reserved but not live) bytes."""
        total = (
            self._priors.slack_nbytes
            + self._src.slack_nbytes
            + self._dst.slack_nbytes
            + self._rev.slack_nbytes
        )
        if self._mats is not None:
            total += self._mats.slack_nbytes
        return total

    # ------------------------------------------------------------------
    def set_shared_potential(self, matrix: np.ndarray) -> None:
        """Install the shared joint-probability matrix (§2.2).

        A non-symmetric matrix cannot stay shared — reverse edges need the
        transpose — so it switches the builder to per-edge mode, exactly
        as :meth:`BeliefGraph.from_undirected` would.
        """
        b = self.n_states
        matrix = np.asarray(matrix, dtype=_FLOAT)
        if matrix.shape != (b, b):
            raise ValueError(f"shared potential must be ({b}, {b})")
        if np.allclose(matrix, matrix.T, atol=1e-6):
            self._shared = matrix
        else:
            self._shared = matrix
            self._switch_to_per_edge()

    def _switch_to_per_edge(self) -> None:
        if self._mats is not None:
            return
        b = self.n_states
        self._mats = GrowableArray((b, b), _FLOAT, capacity=max(self.n_edges, 16))
        if self.n_edges:
            if self._shared is None:
                raise ValueError("edges exist but no potential was set")
            stack = np.empty((self.n_edges, b, b), dtype=_FLOAT)
            stack[0::2] = self._shared
            stack[1::2] = self._shared.T
            self._mats.extend(stack)

    # ------------------------------------------------------------------
    def add_node(self, prior: np.ndarray | None = None, name: str | None = None) -> int:
        """Append one node; returns its id.  ``prior=None`` means uniform."""
        b = self.n_states
        if prior is None:
            row = np.full(b, 1.0 / b, dtype=_FLOAT)
        else:
            row = np.asarray(prior, dtype=_FLOAT).reshape(-1)
            if len(row) != b:
                raise ValueError(f"prior needs {b} values, got {len(row)}")
        nid = self._priors.append(row)
        if name is not None:
            if self._names is None:
                self._names = [str(i) for i in range(nid)]
            self._names.append(name)
        elif self._names is not None:
            self._names.append(str(nid))
        return nid

    def add_nodes(self, count: int) -> None:
        """Bulk-append ``count`` uniform-prior nodes."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        b = self.n_states
        self._priors.extend(np.full((count, b), 1.0 / b, dtype=_FLOAT))
        if self._names is not None:
            start = self.n_nodes - count
            self._names.extend(str(i) for i in range(start, self.n_nodes))

    def set_prior(self, node: int, values: Sequence[float]) -> None:
        """Overwrite a node's prior row in place."""
        row = np.asarray(values, dtype=_FLOAT).reshape(-1)
        if len(row) != self.n_states:
            raise ValueError(f"prior needs {self.n_states} values, got {len(row)}")
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range")
        self._priors.view[node] = row

    def reserve_edges(self, undirected: int) -> None:
        """Size the edge arrays for ``undirected`` more edges up front."""
        cap = self.n_edges + 2 * max(int(undirected), 0)
        for arr in (self._src, self._dst, self._rev):
            arr.reserve(cap)
        if self._mats is not None:
            self._mats.reserve(cap)

    def add_undirected_edges(
        self, pairs: np.ndarray, matrices: np.ndarray | None = None
    ) -> int:
        """Append undirected edges as interleaved directed pairs.

        Self loops are dropped (matching ``from_undirected``).  Returns
        the number of undirected edges actually added.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if matrices is not None:
            b = self.n_states
            matrices = np.asarray(matrices, dtype=_FLOAT).reshape(-1, b, b)
            if len(matrices) != len(pairs):
                raise ValueError("one matrix per undirected edge required")
        keep = pairs[:, 0] != pairs[:, 1]
        pairs = pairs[keep]
        if matrices is not None:
            matrices = matrices[keep]
        k = len(pairs)
        if k == 0:
            return 0
        if pairs.min() < 0 or pairs.max() >= self.n_nodes:
            raise ValueError("edge endpoint out of range")

        # the mode switch (and its backfill of existing edges) must see the
        # edge arrays as they were before this batch
        if matrices is not None:
            self._switch_to_per_edge()
        elif self._mats is None and self._shared is None:
            raise ValueError("set a shared potential (or pass matrices) before adding edges")

        base = self.n_edges
        src = np.empty(2 * k, dtype=np.int64)
        dst = np.empty(2 * k, dtype=np.int64)
        src[0::2], dst[0::2] = pairs[:, 0], pairs[:, 1]
        src[1::2], dst[1::2] = pairs[:, 1], pairs[:, 0]
        rev = np.empty(2 * k, dtype=np.int64)
        rev[0::2] = base + np.arange(1, 2 * k, 2)
        rev[1::2] = base + np.arange(0, 2 * k, 2)
        self._src.extend(src)
        self._dst.extend(dst)
        self._rev.extend(rev)

        if self._mats is not None:
            source = matrices
            if source is None:
                source = np.broadcast_to(self._shared, (k, *self._shared.shape))
            stack = np.empty((2 * k, self.n_states, self.n_states), dtype=_FLOAT)
            stack[0::2] = source
            stack[1::2] = source.transpose(0, 2, 1)
            self._mats.extend(stack)
        return k

    def add_undirected_edge(self, u: int, v: int, matrix: np.ndarray | None = None) -> int:
        mats = None if matrix is None else np.asarray(matrix, dtype=_FLOAT)[None]
        return self.add_undirected_edges(np.array([[u, v]], dtype=np.int64), mats)

    # ------------------------------------------------------------------
    def build(self, *, collapse_identical: bool = True) -> BeliefGraph:
        """Construct the graph over the builder's live array prefixes.

        The structure arrays (src/dst/reverse, per-edge potentials) pass
        through as views — no copy.  The graph's ``reserved`` footprint
        entry records the builder's current over-allocation.
        """
        b = self.n_states
        m = self.n_edges
        pots: np.ndarray | PerEdgePotentialStore | SharedPotentialStore
        if self._mats is not None:
            stack = self._mats.view
            if collapse_identical and m and bool((stack == stack[0]).all()):
                pots = SharedPotentialStore(np.array(stack[0]), m)
            else:
                pots = PerEdgePotentialStore(stack)
        elif self._shared is not None:
            pots = SharedPotentialStore(self._shared, m)
        else:
            pots = SharedPotentialStore(np.eye(b, dtype=_FLOAT), m)
        graph = BeliefGraph(
            self._priors.view,
            self._src.view,
            self._dst.view,
            pots,
            reverse_edge=self._rev.view,
            node_names=self._names,
            layout=self.layout,
        )
        graph.reserved_nbytes = self.slack_nbytes
        return graph


# ----------------------------------------------------------------------
def load_graph_stream(
    node_path: str | Path,
    edge_path: str | Path,
    *,
    layout: str = "aos",
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    collapse_identical: bool = True,
) -> BeliefGraph:
    """Stream the dual-file format into a graph in bounded memory.

    The node file is read first, then the edge file ("first by nodes and
    then edges", §3.2), ``chunk_edges`` lines at a time; each chunk goes
    through the shared body reader of :mod:`repro.io.mtx` and is appended
    to the builder in bulk.  Validation, errors and the resulting
    structure match :func:`repro.io.mtx.read_mtx_graph` exactly.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be positive")
    priors, b = _read_nodes(Path(node_path))
    builder = StreamingGraphBuilder(b, layout=layout, expect_nodes=len(priors))
    builder._priors.extend(priors)
    chunks = _edge_chunks(Path(edge_path), len(priors), b, chunk_edges)
    shared, m = next(chunks)
    if shared is not None:
        builder.set_shared_potential(shared)
    else:
        builder._switch_to_per_edge()  # per-edge even with no edges, as the batch reader
    builder.reserve_edges(m)
    for pairs, mats in chunks:
        builder.add_undirected_edges(pairs, mats)
    return builder.build(collapse_identical=collapse_identical)
