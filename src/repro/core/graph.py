"""The belief graph: nodes with discrete beliefs, directed edge pairs and
compressed adjacency indices (paper §3.3, §3.4).

A :class:`BeliefGraph` stores the minimum the paper says Credo keeps: node
names and beliefs, indices for the edges, and the potential matrices.  An
undirected MRF edge ``{u, v}`` is represented as **two directed edges**
``u→v`` and ``v→u`` ("treating the undirected edges of an MRF as containing
two separate edges to account for observed nodes being statically set",
§3.3).  Edges are indexed by compressed adjacency lists (CSR) keyed both by
destination (for per-node gathering) and by source (for emission), so BP
kernels touch only indices until the actual math runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.beliefs import BeliefStore, make_store
from repro.core.potentials import (
    PerEdgePotentialStore,
    PotentialStore,
    SharedPotentialStore,
)

__all__ = ["BeliefGraph"]

_FLOAT = np.float32


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise ValueError("priors contain NaN or infinite entries")
    if (matrix < 0).any():
        raise ValueError("priors must be non-negative")
    total = matrix.sum(axis=1, keepdims=True)
    bad = total.reshape(-1) <= 0
    if bad.any():
        matrix = matrix.copy()
        matrix[bad] = 1.0
        total = matrix.sum(axis=1, keepdims=True)
    return (matrix / total).astype(_FLOAT)


class BeliefGraph:
    """A Markov-random-field-style belief network.

    Parameters
    ----------
    priors:
        ``(n, b)`` array of per-node prior beliefs (rows are normalized on
        ingest), or a list of 1-D arrays for heterogeneous state counts.
    src, dst:
        Directed edge endpoints (each undirected MRF edge appears twice).
    potentials:
        A :class:`~repro.core.potentials.PotentialStore`, a single shared
        ``(b, b)`` matrix, or a ``(E, b, b)`` stack.
    reverse_edge:
        Optional ``(E,)`` array mapping each directed edge to its reverse
        (``-1`` when absent); computed when omitted.
    node_names:
        Optional sequence of names; defaults to stringified ids.
    layout:
        Belief storage layout: ``"aos"`` (default, the paper's choice),
        ``"soa"``, or the tile-packed ``"blocked"``.
    """

    #: class-level default so clone paths built via ``__new__`` (layout
    #: conversion, copy) stay consistent even before assigning their own
    reserved_nbytes: int = 0

    def __init__(
        self,
        priors: np.ndarray | Sequence[np.ndarray],
        src: np.ndarray,
        dst: np.ndarray,
        potentials: PotentialStore | np.ndarray,
        *,
        reverse_edge: np.ndarray | None = None,
        node_names: Sequence[str] | None = None,
        layout: str = "aos",
    ):
        # --- nodes -----------------------------------------------------
        if isinstance(priors, np.ndarray) and priors.ndim == 2:
            dense_priors = _normalize_rows(np.asarray(priors, dtype=_FLOAT))
            dims = np.full(len(dense_priors), dense_priors.shape[1], dtype=np.int64)
        else:
            rows = [np.asarray(p, dtype=_FLOAT).reshape(-1) for p in priors]
            dims = np.array([len(r) for r in rows], dtype=np.int64)
            dense_priors = None
            self._ragged_priors = [r / max(r.sum(), np.finfo(_FLOAT).tiny) for r in rows]
        self.n_nodes = len(dims)
        self.dims = dims
        self.layout = layout

        self.priors: BeliefStore = make_store(dims, layout)
        self.beliefs: BeliefStore = make_store(dims, layout)
        if dense_priors is not None:
            self.priors.load_dense(dense_priors)
            self.beliefs.load_dense(dense_priors)
        else:
            for i, row in enumerate(self._ragged_priors):
                self.priors.set(i, row)
                self.beliefs.set(i, row)

        if node_names is None:
            self.node_names = [str(i) for i in range(self.n_nodes)]
        else:
            if len(node_names) != self.n_nodes:
                raise ValueError("node_names length mismatch")
            self.node_names = list(node_names)

        # --- edges -----------------------------------------------------
        self.src = np.asarray(src, dtype=np.int64).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if len(self.src) != len(self.dst):
            raise ValueError("src and dst must have equal length")
        self.n_edges = len(self.src)
        if self.n_edges and (
            self.src.min() < 0
            or self.dst.min() < 0
            or self.src.max() >= self.n_nodes
            or self.dst.max() >= self.n_nodes
        ):
            raise ValueError("edge endpoint out of range")

        if isinstance(potentials, PotentialStore):
            self.potentials = potentials
        else:
            pot = np.asarray(potentials, dtype=_FLOAT)
            if pot.ndim == 2:
                self.potentials = SharedPotentialStore(pot, self.n_edges)
            elif pot.ndim == 3:
                if pot.shape[0] != self.n_edges:
                    raise ValueError("per-edge potential stack length mismatch")
                self.potentials = PerEdgePotentialStore(pot)
            else:
                raise ValueError("potentials must be (b,b) or (E,b,b)")
        if len(self.potentials) != self.n_edges:
            raise ValueError("potential store length mismatch")

        self.reverse_edge = (
            self._compute_reverse() if reverse_edge is None
            else np.asarray(reverse_edge, dtype=np.int64).reshape(-1)
        )
        if len(self.reverse_edge) != self.n_edges:
            raise ValueError("reverse_edge length mismatch")

        # --- compressed adjacency (CSR by dst and by src) ---------------
        self.in_offsets, self.in_edge_ids = self._csr(self.dst)
        self.out_offsets, self.out_edge_ids = self._csr(self.src)

        # --- observations ------------------------------------------------
        self.observed = np.zeros(self.n_nodes, dtype=bool)
        self.observed_state = np.full(self.n_nodes, -1, dtype=np.int64)

        #: bytes reserved beyond the live data — amortized-growth loaders
        #: (repro.stream) build over capacity-doubled buffers and record
        #: their slack here so memory_footprint() never reports
        #: over-allocation as live data
        self.reserved_nbytes = 0

        # --- lazy caches -------------------------------------------------
        #: name → id mapping, built on first string lookup (see node_id)
        self._name_to_id: dict[str, int] | None = None
        #: memoized metadata features, shared by copies (structure is
        #: shared too); repro.credo.features reads and fills this
        self._feature_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_undirected(
        cls,
        priors: np.ndarray,
        edges: np.ndarray,
        potential: np.ndarray | None = None,
        *,
        per_edge_potentials: np.ndarray | None = None,
        node_names: Sequence[str] | None = None,
        layout: str = "aos",
        dedupe: bool = True,
    ) -> "BeliefGraph":
        """Build a graph from an undirected edge list.

        Each undirected edge ``(u, v)`` becomes the directed pair ``u→v``
        (with matrix ``J``) and ``v→u`` (with ``Jᵀ``).  ``potential`` gives
        the single shared matrix (§2.2 mode); ``per_edge_potentials`` an
        ``(m, b, b)`` stack for the original per-edge mode.  Self loops are
        dropped and, when ``dedupe`` is set, duplicate undirected edges
        collapse to one.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        keep = edges[:, 0] != edges[:, 1]
        edges = edges[keep]
        if per_edge_potentials is not None:
            per_edge_potentials = np.asarray(per_edge_potentials, dtype=_FLOAT)[keep]
        if dedupe and len(edges):
            canon = np.sort(edges, axis=1)
            _, unique_idx = np.unique(canon, axis=0, return_index=True)
            unique_idx.sort()
            edges = edges[unique_idx]
            if per_edge_potentials is not None:
                per_edge_potentials = per_edge_potentials[unique_idx]
        m = len(edges)
        src = np.empty(2 * m, dtype=np.int64)
        dst = np.empty(2 * m, dtype=np.int64)
        src[0::2], dst[0::2] = edges[:, 0], edges[:, 1]
        src[1::2], dst[1::2] = edges[:, 1], edges[:, 0]
        reverse = np.empty(2 * m, dtype=np.int64)
        reverse[0::2] = np.arange(1, 2 * m, 2)
        reverse[1::2] = np.arange(0, 2 * m, 2)

        pots: PotentialStore | np.ndarray
        if per_edge_potentials is not None:
            stack = np.empty((2 * m, *per_edge_potentials.shape[1:]), dtype=_FLOAT)
            stack[0::2] = per_edge_potentials
            stack[1::2] = per_edge_potentials.transpose(0, 2, 1)
            pots = PerEdgePotentialStore(stack)
        elif potential is not None:
            potential = np.asarray(potential, dtype=_FLOAT)
            if not np.allclose(potential, potential.T, atol=1e-6):
                # A non-symmetric shared matrix needs the transpose along
                # reverse edges; interleave a two-matrix per-edge store.
                stack = np.empty((2 * m, *potential.shape), dtype=_FLOAT)
                stack[0::2] = potential
                stack[1::2] = potential.T
                pots = PerEdgePotentialStore(stack)
            else:
                pots = SharedPotentialStore(potential, 2 * m)
        else:
            raise ValueError("provide potential or per_edge_potentials")

        return cls(
            priors, src, dst, pots,
            reverse_edge=reverse, node_names=node_names, layout=layout,
        )

    # ------------------------------------------------------------------
    def _compute_reverse(self) -> np.ndarray:
        lookup = {(int(s), int(d)): e for e, (s, d) in enumerate(zip(self.src, self.dst))}
        reverse = np.full(self.n_edges, -1, dtype=np.int64)
        for e in range(self.n_edges):
            reverse[e] = lookup.get((int(self.dst[e]), int(self.src[e])), -1)
        return reverse

    def _csr(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = len(keys)
        if self.n_nodes * m >= 2**63:
            raise ValueError(f"{self.n_nodes} nodes x {m} edges overflow the int64 CSR sort key")
        counts = np.bincount(keys, minlength=self.n_nodes)
        offsets = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # argsort(keys, kind="stable") in O(m) extra memory: sort the
        # distinct composite keys key·m + position, then keep the position
        order = np.multiply(keys, m, dtype=np.int64)
        order += np.arange(m, dtype=np.int64)
        order.sort()
        np.remainder(order, m, out=order)
        return offsets, order

    # ------------------------------------------------------------------
    @property
    def uniform(self) -> bool:
        """True when every node has the same number of states."""
        return self.beliefs.uniform

    @property
    def n_states(self) -> int:
        """State count of the uniform fast path (max width otherwise)."""
        return self.beliefs.width

    def in_degree(self) -> np.ndarray:
        return np.diff(self.in_offsets)

    def out_degree(self) -> np.ndarray:
        return np.diff(self.out_offsets)

    def in_edges(self, v: int) -> np.ndarray:
        """Ids of directed edges terminating at ``v``."""
        return self.in_edge_ids[self.in_offsets[v] : self.in_offsets[v + 1]]

    def out_edges(self, v: int) -> np.ndarray:
        """Ids of directed edges originating at ``v``."""
        return self.out_edge_ids[self.out_offsets[v] : self.out_offsets[v + 1]]

    def parents(self, v: int) -> np.ndarray:
        return self.src[self.in_edges(v)]

    def children(self, v: int) -> np.ndarray:
        return self.dst[self.out_edges(v)]

    def node_id(self, node: int | str) -> int:
        """Resolve a node name (or pass through an id) to an integer id.

        The name → id mapping is built lazily on the first string lookup
        and carried through :meth:`copy`, so repeated evidence application
        (the serving hot path) avoids a linear ``list.index`` scan per
        call.  Duplicate names resolve to the first occurrence, matching
        ``list.index`` semantics.  Raises ``KeyError`` for unknown names.
        """
        if not isinstance(node, str):
            return int(node)
        if self._name_to_id is None:
            mapping: dict[str, int] = {}
            for i, name in enumerate(self.node_names):
                mapping.setdefault(name, i)
            self._name_to_id = mapping
        try:
            return self._name_to_id[node]
        except KeyError:
            raise KeyError(f"unknown node name {node!r}") from None

    def invalidate_metadata_cache(self) -> None:
        """Drop memoized features and the name map after a structural
        mutation (renamed nodes, rewired edges done in place)."""
        self._feature_cache.clear()
        self._name_to_id = None

    def reset_beliefs(self) -> None:
        """Restore beliefs to the priors (and re-clamp observed nodes)."""
        if self.n_nodes:
            self.beliefs.copy_rows_from(
                self.priors, np.arange(self.n_nodes, dtype=np.int64)
            )
        self._reclamp()

    def _reclamp(self) -> None:
        for i in np.flatnonzero(self.observed):
            vec = np.zeros(int(self.dims[i]), dtype=_FLOAT)
            vec[int(self.observed_state[i])] = 1.0
            self.beliefs.set(i, vec)

    def memory_footprint(self) -> dict[str, int]:
        """Bytes used by the major graph components (for §2.2 analysis).

        ``metadata`` covers the lazily-built caches — the name → id map
        and memoized Credo features — which serve capacity accounting
        must count once they exist (zero until first use).  ``reserved``
        is capacity minus live size: the amortized-growth slack of a
        streamed build (zero for batch-constructed graphs), reported
        separately so capacity planning sees allocation, not just data.
        """
        import sys

        metadata = 0
        if self._name_to_id is not None:
            metadata += sys.getsizeof(self._name_to_id)
            metadata += sum(sys.getsizeof(k) for k in self._name_to_id)
            metadata += len(self._name_to_id) * 8  # int values, interned-ish
        if self._feature_cache:
            metadata += sys.getsizeof(self._feature_cache)
            metadata += sum(
                sys.getsizeof(k) + v.nbytes for k, v in self._feature_cache.items()
            )
        return {
            "beliefs": self.beliefs.nbytes(),
            "priors": self.priors.nbytes(),
            "potentials": self.potentials.nbytes(),
            "adjacency": int(
                self.src.nbytes + self.dst.nbytes + self.reverse_edge.nbytes
                + self.in_offsets.nbytes + self.in_edge_ids.nbytes
                + self.out_offsets.nbytes + self.out_edge_ids.nbytes
            ),
            "metadata": int(metadata),
            "reserved": int(self.reserved_nbytes),
        }

    def metadata(self) -> dict[str, float]:
        """Raw metadata available right after parsing, the input to Credo's
        feature extraction (§3.7)."""
        indeg = self.in_degree()
        outdeg = self.out_degree()
        return {
            "n_nodes": float(self.n_nodes),
            "n_edges": float(self.n_edges),
            "n_beliefs": float(self.n_states),
            "max_in_degree": float(indeg.max(initial=0)),
            "max_out_degree": float(outdeg.max(initial=0)),
            "avg_in_degree": float(indeg.mean()) if self.n_nodes else 0.0,
        }

    def copy(self) -> "BeliefGraph":
        """A graph with its own priors, beliefs and evidence; the
        structure (edges, potentials, node names) is shared."""
        clone = BeliefGraph.__new__(BeliefGraph)
        clone.n_nodes = self.n_nodes
        clone.dims = self.dims
        clone.layout = self.layout
        clone.priors = self.priors.copy()
        clone.beliefs = self.beliefs.copy()
        clone.src = self.src
        clone.dst = self.dst
        clone.n_edges = self.n_edges
        clone.potentials = self.potentials
        clone.reverse_edge = self.reverse_edge
        clone.in_offsets, clone.in_edge_ids = self.in_offsets, self.in_edge_ids
        clone.out_offsets, clone.out_edge_ids = self.out_offsets, self.out_edge_ids
        clone.observed = self.observed.copy()
        clone.observed_state = self.observed_state.copy()
        # structure arrays are shared, so their over-allocation is too
        clone.reserved_nbytes = self.reserved_nbytes
        # structure (and hence names/features) is shared, so the names
        # and their caches are too
        clone.node_names = self.node_names
        clone._name_to_id = self._name_to_id
        clone._feature_cache = self._feature_cache
        return clone

    def __repr__(self) -> str:
        return (
            f"BeliefGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges}, "
            f"n_states={self.n_states}, layout={self.layout!r}, "
            f"shared_potential={self.potentials.shared})"
        )
