"""Belief storage layouts: struct-of-arrays vs array-of-structs (paper §3.4).

The paper evaluates two memory layouts for the node-belief and
joint-probability data and settles on the array-of-structs (AoS) design
after observing circa 56 % fewer data-cache reads and writes with
``cachegrind``.  We implement both layouts behind a common interface so the
ablation benchmark (E5) can compare them, and we expose the access-pattern
statistics the cost model needs (number of cache lines touched per sweep).

Both stores hold, for each of ``n`` nodes, a discrete probability vector of
``dims[i]`` states.  The *uniform* fast path — every node has the same
number of states — additionally exposes a dense ``(n, b)`` matrix view used
by the vectorized kernels.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "BeliefStore",
    "SoABeliefStore",
    "AoSBeliefStore",
    "BlockedBeliefStore",
    "CACHE_LINE_BYTES",
    "BLOCK_NODES",
]

#: Cache-line size assumed by the access-pattern model (bytes).
CACHE_LINE_BYTES = 64

#: Nodes per tile of the blocked (AoSoA) layout — one float32 lane set
#: per cache line, so a tile's state-plane is exactly one line wide.
BLOCK_NODES = CACHE_LINE_BYTES // 4

_FLOAT = np.float32


def _copy_bytes(arr: np.ndarray) -> np.ndarray:
    """A fresh array with ``arr``'s dtype, shape and bytes.

    Copies through a ``uint8`` view: a structured-record copy goes field
    by field, 0.60 vs 0.05 ms for 65,536 two-state AoS records.
    """
    out = np.empty(arr.shape, dtype=arr.dtype)
    out.view(np.uint8)[...] = np.ascontiguousarray(arr).view(np.uint8)
    return out


class BeliefStore:
    """Abstract container of per-node belief vectors.

    Subclasses fix the physical layout and name the one array that holds
    every vector (``_buffer``); the index arrays beside it (``dims``,
    ``offsets``) never change after construction and are shared by
    copies.  All indices are node ids in ``range(n)``; vectors are
    float32 and are not implicitly normalized.
    """

    layout: str = "abstract"
    _buffer: str = ""

    def __init__(self, dims: np.ndarray):
        dims = np.asarray(dims, dtype=np.int64)
        if dims.ndim != 1:
            raise ValueError("dims must be a 1-D array of state counts")
        if len(dims) and dims.min() < 1:
            raise ValueError("every node needs at least one state")
        self.dims = dims
        self.n = len(dims)
        self.uniform = bool(len(dims)) and bool((dims == dims[0]).all())
        self.width = int(dims[0]) if self.uniform else int(dims.max(initial=0))

    # -- element access -------------------------------------------------
    def get(self, i: int) -> np.ndarray:
        """Return the belief vector of node ``i`` (a copy or view)."""
        raise NotImplementedError

    def set(self, i: int, value: np.ndarray) -> None:
        """Overwrite the belief vector of node ``i``."""
        raise NotImplementedError

    def fill_uniform(self) -> None:
        """Reset every node to the uniform distribution over its states."""
        for i in range(self.n):
            d = int(self.dims[i])
            self.set(i, np.full(d, 1.0 / d, dtype=_FLOAT))

    # -- bulk access ----------------------------------------------------
    def dense(self) -> np.ndarray:
        """Return an ``(n, width)`` dense matrix view/copy of all beliefs.

        Rows of nodes with fewer than ``width`` states are zero-padded.
        For the uniform layout this is the array the vectorized kernels
        operate on directly; mutating the returned array updates the store
        only when :meth:`dense_is_view` is true.
        """
        raise NotImplementedError

    def dense_is_view(self) -> bool:
        """Whether :meth:`dense` aliases the underlying storage."""
        return False

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """``dense()[nodes]`` as a fresh ``(len(nodes), width)`` array,
        without touching the other rows."""
        raise NotImplementedError

    def load_dense(self, matrix: np.ndarray) -> None:
        """Copy ``matrix`` (``(n, width)``) back into the store."""
        for i in range(self.n):
            self.set(i, matrix[i, : self.dims[i]])

    def copy(self) -> "BeliefStore":
        """An independent store with the same vectors: the backing
        buffer is copied as raw bytes, the index arrays are shared."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        setattr(clone, self._buffer, _copy_bytes(getattr(self, self._buffer)))
        return clone

    def copy_rows_from(self, other: "BeliefStore", rows: np.ndarray) -> None:
        """Overwrite the given nodes' vectors with ``other``'s (same dims).

        Subclasses override with a vectorized path when both stores share
        the physical layout; this fallback loops.
        """
        for i in rows:
            self.set(int(i), other.get(int(i)))

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self.n):
            yield self.get(i)

    # -- cost-model hooks -------------------------------------------------
    def nbytes(self) -> int:
        """Exact bytes of backing storage, including layout padding and
        index structures — the truthful number capacity accounting
        (``BeliefGraph.memory_footprint``) reports per layout."""
        raise NotImplementedError

    def bytes_per_node(self) -> float:
        """Average bytes of storage footprint per node."""
        return float(self.nbytes()) / max(self.n, 1)

    def cache_lines_per_access(self) -> float:
        """Average distinct cache lines touched when reading one node's
        belief vector *and* its dimension metadata.

        This is the quantity behind the paper's cachegrind observation: the
        SoA layout splits the probabilities and the dims into two parallel
        arrays, so a single logical access touches (at least) two widely
        separated lines, while AoS packs them into one struct.
        """
        raise NotImplementedError

    def cache_lines_per_sweep_node(self) -> float:
        """Average cache lines per node touched by a *streaming* full
        sweep (ascending node order, every node visited).

        Random gathers pay :meth:`cache_lines_per_access`; a full sweep
        amortizes lines across neighbouring nodes, which is where the
        blocked layout earns its keep.  The default assumes no
        amortization beyond the layout's own packing.
        """
        return self.cache_lines_per_access()


class SoABeliefStore(BeliefStore):
    """Struct-of-arrays layout: one flat float array of probabilities plus
    parallel ``offsets``/``dims`` index arrays (paper §3.4, the rejected
    design)."""

    layout = "soa"
    _buffer = "probs"

    def __init__(self, dims: np.ndarray):
        super().__init__(dims)
        self.offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.dims, out=self.offsets[1:])
        self.probs = np.zeros(int(self.offsets[-1]), dtype=_FLOAT)

    def get(self, i: int) -> np.ndarray:
        return self.probs[self.offsets[i] : self.offsets[i + 1]]

    def set(self, i: int, value: np.ndarray) -> None:
        seg = self.probs[self.offsets[i] : self.offsets[i + 1]]
        if len(value) != len(seg):
            raise ValueError(f"node {i} holds {len(seg)} states, got {len(value)}")
        seg[:] = value

    def dense(self) -> np.ndarray:
        if self.uniform:
            return self.probs.reshape(self.n, self.width)
        out = np.zeros((self.n, self.width), dtype=_FLOAT)
        for i in range(self.n):
            out[i, : self.dims[i]] = self.get(i)
        return out

    def dense_is_view(self) -> bool:
        return self.uniform

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        states = np.arange(self.width)
        valid = states < self.dims[nodes][:, None]
        out = np.zeros((len(nodes), self.width), dtype=_FLOAT)
        out[valid] = self.probs[(self.offsets[nodes][:, None] + states)[valid]]
        return out

    def load_dense(self, matrix: np.ndarray) -> None:
        if self.uniform:
            self.probs[:] = matrix.reshape(-1)
        else:
            super().load_dense(matrix)

    def copy_rows_from(self, other: BeliefStore, rows: np.ndarray) -> None:
        if not isinstance(other, SoABeliefStore) or len(other) != self.n:
            super().copy_rows_from(other, rows)
            return
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            return
        starts = self.offsets[rows]
        sizes = self.dims[rows]
        total = int(sizes.sum())
        local = np.zeros(len(rows), dtype=np.int64)
        np.cumsum(sizes[:-1], out=local[1:])
        rank = np.arange(total) - np.repeat(local, sizes)
        flat = np.repeat(starts, sizes) + rank
        self.probs[flat] = other.probs[flat]

    def nbytes(self) -> int:
        # probabilities + an 8-byte offset + an 8-byte dim per node
        return int(self.probs.nbytes + self.offsets.nbytes + self.dims.nbytes)

    def cache_lines_per_access(self) -> float:
        # One access reads: the offset entry, the dim entry, and the
        # probability segment — three separate arrays, three line streams
        # (the index arrays partially cache, so they count fractionally).
        prob_lines = max(1.0, (self.width * 4) / CACHE_LINE_BYTES)
        return 1.3 + prob_lines

    def cache_lines_per_sweep_node(self) -> float:
        # Streaming the flat probs array is perfectly dense; the index
        # arrays only join the stream on ragged graphs.  The uniform
        # dense() view costs nothing extra (no copy).
        lines = (self.width * 4) / CACHE_LINE_BYTES
        if not self.uniform:
            lines += 16 / CACHE_LINE_BYTES
        return lines


class AoSBeliefStore(BeliefStore):
    """Array-of-structs layout: one record per node holding a statically
    sized float array plus its dimension (paper §3.4, the adopted design)."""

    layout = "aos"
    _buffer = "records"

    def __init__(self, dims: np.ndarray):
        super().__init__(dims)
        width = max(self.width, 1)
        self._dtype = np.dtype(
            [("probs", _FLOAT, (width,)), ("dim", np.uint32)], align=False
        )
        # the same records with each probability vector one opaque item:
        # a bulk copy then moves one item per record instead of striding
        # float by float (0.04 vs 0.35 ms to load 65,536 two-state rows)
        self._row = np.dtype((np.void, width * np.dtype(_FLOAT).itemsize))
        self._opaque = np.dtype({
            "names": ["probs", "dim"],
            "formats": [self._row, np.uint32],
            "offsets": [0, self._row.itemsize],
            "itemsize": self._dtype.itemsize,
        })
        self.records = np.zeros(self.n, dtype=self._dtype)
        self.records["dim"] = self.dims

    def _prob_items(self) -> np.ndarray:
        """The ``probs`` field as one opaque item per record (a view)."""
        return self.records.view(self._opaque)["probs"]

    def get(self, i: int) -> np.ndarray:
        return self.records["probs"][i, : self.dims[i]]

    def set(self, i: int, value: np.ndarray) -> None:
        d = int(self.dims[i])
        if len(value) != d:
            raise ValueError(f"node {i} holds {d} states, got {len(value)}")
        self.records["probs"][i, :d] = value

    def dense(self) -> np.ndarray:
        # "probs" is a strided field view; copy to contiguous for kernels.
        out = np.empty((self.n, max(self.width, 1)), dtype=_FLOAT)
        np.copyto(out.view(self._row).reshape(-1), self._prob_items())
        return out

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        return self.records["probs"][np.asarray(nodes, dtype=np.int64)]

    def load_dense(self, matrix: np.ndarray) -> None:
        rows = np.ascontiguousarray(matrix, dtype=_FLOAT).reshape(self.n, max(self.width, 1))
        np.copyto(self._prob_items(), rows.view(self._row).reshape(-1))

    def copy_rows_from(self, other: BeliefStore, rows: np.ndarray) -> None:
        if not isinstance(other, AoSBeliefStore) or len(other) != self.n:
            super().copy_rows_from(other, rows)
            return
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows):
            self.records["probs"][rows] = other.records["probs"][rows]

    def nbytes(self) -> int:
        return int(self.records.nbytes)

    def cache_lines_per_access(self) -> float:
        # probs and dim sit in the same record: one contiguous line stream.
        return max(1.0, self._dtype.itemsize / CACHE_LINE_BYTES)

    def cache_lines_per_sweep_node(self) -> float:
        # Records stream contiguously, but the interleaved dim field rides
        # along in every line whether the sweep wants it or not.
        return self._dtype.itemsize / CACHE_LINE_BYTES


class BlockedBeliefStore(BeliefStore):
    """Degree-blocked AoSoA layout: nodes are grouped into tiles of
    :data:`BLOCK_NODES` and each tile stores its probabilities
    plane-major — ``planes[t, s, j]`` is state ``s`` of node
    ``t * BLOCK_NODES + j``.

    Every state plane of a tile is exactly one cache line of float32
    lanes, so a streaming sweep reads ``width`` dense lines per tile and
    a SIMD kernel sees each state contiguous across 16 nodes.  The price
    is random access: one scattered line per *state* instead of per
    node.  The autotuner weighs exactly this trade.
    """

    layout = "blocked"
    _buffer = "planes"

    def __init__(self, dims: np.ndarray):
        super().__init__(dims)
        width = max(self.width, 1)
        self.n_blocks = (self.n + BLOCK_NODES - 1) // BLOCK_NODES
        self.planes = np.zeros((self.n_blocks, width, BLOCK_NODES), dtype=_FLOAT)

    def get(self, i: int) -> np.ndarray:
        t, j = divmod(i, BLOCK_NODES)
        return self.planes[t, : self.dims[i], j]

    def set(self, i: int, value: np.ndarray) -> None:
        d = int(self.dims[i])
        if len(value) != d:
            raise ValueError(f"node {i} holds {d} states, got {len(value)}")
        t, j = divmod(i, BLOCK_NODES)
        self.planes[t, :d, j] = value

    def dense(self) -> np.ndarray:
        # de-tile: (n_blocks, width, BLOCK) -> (n_blocks * BLOCK, width)
        width = max(self.width, 1)
        flat = self.planes.transpose(0, 2, 1).reshape(self.n_blocks * BLOCK_NODES, width)
        out = np.ascontiguousarray(flat[: self.n])
        if not self.uniform:
            for i in range(self.n):
                out[i, self.dims[i] :] = 0.0
        return out

    def load_dense(self, matrix: np.ndarray) -> None:
        width = max(self.width, 1)
        padded = np.zeros((self.n_blocks * BLOCK_NODES, width), dtype=_FLOAT)
        padded[: self.n] = matrix
        self.planes[:] = padded.reshape(self.n_blocks, BLOCK_NODES, width).transpose(0, 2, 1)

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        t, j = np.divmod(nodes, BLOCK_NODES)
        out = self.planes[t, :, j]
        if not self.uniform:
            out[np.arange(out.shape[1]) >= self.dims[nodes][:, None]] = 0.0
        return out

    def copy_rows_from(self, other: BeliefStore, rows: np.ndarray) -> None:
        if not isinstance(other, BlockedBeliefStore) or len(other) != self.n:
            super().copy_rows_from(other, rows)
            return
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows):
            t, j = np.divmod(rows, BLOCK_NODES)
            self.planes[t, :, j] = other.planes[t, :, j]

    def nbytes(self) -> int:
        # tile padding (up to BLOCK_NODES - 1 phantom nodes) is real
        # allocated storage and is reported as such
        return int(self.planes.nbytes + self.dims.nbytes)

    def cache_lines_per_access(self) -> float:
        # One node's vector is spread across `width` state planes, each a
        # separate line; the dim entry adds a fractional index line.
        return 0.25 + float(max(self.width, 1))

    def cache_lines_per_sweep_node(self) -> float:
        # A full tile streams `width` lines for BLOCK_NODES nodes.
        return (max(self.width, 1) * 4) / CACHE_LINE_BYTES


def make_store(dims: np.ndarray, layout: str = "aos") -> BeliefStore:
    """Factory: build a belief store with the requested layout."""
    if layout == "aos":
        return AoSBeliefStore(dims)
    if layout == "soa":
        return SoABeliefStore(dims)
    if layout == "blocked":
        return BlockedBeliefStore(dims)
    raise ValueError(
        f"unknown belief layout {layout!r} (expected 'aos', 'soa' or 'blocked')"
    )
