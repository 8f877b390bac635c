"""Joint-probability (pairwise potential) storage (paper §2.2, §3.4).

Loopy BP defines a joint probability matrix per edge.  The paper observes
that per-edge matrices are "by far the largest amount of memory consumption
for the graph" and untenable at scale, and replaces them with a **single
shared matrix** used by every edge — the same estimation for all node pairs
(e.g. one error rate for all pixels, one transmission rate for all
contacts).  Both designs are implemented here:

* :class:`PerEdgePotentialStore` — one ``(b_src, b_dst)`` matrix per
  directed edge (the original semantics; required for heterogeneous
  networks such as those loaded from BIF files).
* :class:`SharedPotentialStore` — a single matrix for all edges (the §2.2
  refinement; requires constant-width beliefs).

The convention: for a directed edge ``(u, v)`` with matrix ``J``, entry
``J[i, j]`` is the compatibility of ``x_u = i`` with ``x_v = j``; the
message u sends v is ``m = b_u @ J`` (then normalized).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PotentialStore",
    "SharedPotentialStore",
    "PerEdgePotentialStore",
    "random_potential",
    "attractive_potential",
]

_FLOAT = np.float32


class PotentialStore:
    """Abstract store of pairwise potential matrices, one per directed edge."""

    shared: bool = False

    def matrix(self, e: int) -> np.ndarray:
        """Potential matrix for directed edge ``e``."""
        raise NotImplementedError

    def stacked(self, edge_ids: np.ndarray | None = None) -> np.ndarray:
        """Return a ``(E, b, b)`` stack of matrices for the given edges.

        Only valid when all requested matrices share one shape.  The shared
        store returns a broadcast view (no copy).
        """
        raise NotImplementedError

    def transpose_for_reverse(self) -> "PotentialStore":
        """Store holding ``Jᵀ`` per edge, used when emitting along the
        reverse direction of an undirected MRF edge."""
        raise NotImplementedError

    def nbytes(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class SharedPotentialStore(PotentialStore):
    """One matrix shared by every edge (the §2.2 memory refinement)."""

    shared = True

    def __init__(self, matrix: np.ndarray, n_edges: int):
        matrix = np.asarray(matrix, dtype=_FLOAT)
        if matrix.ndim != 2:
            raise ValueError("shared potential must be a 2-D matrix")
        if not np.isfinite(matrix).all():
            raise ValueError("potential entries must be finite (no NaN or infinity)")
        if (matrix < 0).any():
            raise ValueError("potential entries must be non-negative")
        self._matrix = matrix
        self.n_edges = int(n_edges)

    def matrix(self, e: int) -> np.ndarray:
        if not 0 <= e < self.n_edges:
            raise IndexError(f"edge {e} out of range [0, {self.n_edges})")
        return self._matrix

    def stacked(self, edge_ids: np.ndarray | None = None) -> np.ndarray:
        count = self.n_edges if edge_ids is None else len(edge_ids)
        return np.broadcast_to(self._matrix, (count, *self._matrix.shape))

    def transpose_for_reverse(self) -> "SharedPotentialStore":
        return SharedPotentialStore(self._matrix.T.copy(), self.n_edges)

    def nbytes(self) -> int:
        return int(self._matrix.nbytes)

    def __len__(self) -> int:
        return self.n_edges


class PerEdgePotentialStore(PotentialStore):
    """One matrix per directed edge (the original, memory-hungry design)."""

    shared = False

    def __init__(self, matrices: np.ndarray | list[np.ndarray]):
        if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
            self._stack: np.ndarray | None = np.asarray(matrices, dtype=_FLOAT)
            self._ragged: list[np.ndarray] | None = None
            if not np.isfinite(self._stack).all():
                raise ValueError("potential entries must be finite (no NaN or infinity)")
            if (self._stack < 0).any():
                raise ValueError("potential entries must be non-negative")
        else:
            mats = [np.asarray(m, dtype=_FLOAT) for m in matrices]
            for m in mats:
                if m.ndim != 2:
                    raise ValueError("each potential must be a 2-D matrix")
                if not np.isfinite(m).all():
                    raise ValueError("potential entries must be finite (no NaN or infinity)")
                if (m < 0).any():
                    raise ValueError("potential entries must be non-negative")
            shapes = {m.shape for m in mats}
            if len(shapes) == 1 and mats:
                self._stack = np.stack(mats)
                self._ragged = None
            else:
                self._stack = None
                self._ragged = mats

    @property
    def is_ragged(self) -> bool:
        return self._stack is None

    def matrix(self, e: int) -> np.ndarray:
        if self._stack is not None:
            return self._stack[e]
        assert self._ragged is not None
        return self._ragged[e]

    def stacked(self, edge_ids: np.ndarray | None = None) -> np.ndarray:
        if self._stack is None:
            raise ValueError("ragged potential store cannot be stacked")
        return self._stack if edge_ids is None else self._stack[edge_ids]

    def transpose_for_reverse(self) -> "PerEdgePotentialStore":
        if self._stack is not None:
            return PerEdgePotentialStore(np.ascontiguousarray(self._stack.transpose(0, 2, 1)))
        assert self._ragged is not None
        return PerEdgePotentialStore([m.T.copy() for m in self._ragged])

    def nbytes(self) -> int:
        if self._stack is not None:
            return int(self._stack.nbytes)
        assert self._ragged is not None
        return int(sum(m.nbytes for m in self._ragged))

    def __len__(self) -> int:
        if self._stack is not None:
            return int(self._stack.shape[0])
        assert self._ragged is not None
        return len(self._ragged)


def random_potential(n_states: int, rng: np.random.Generator, *, concentration: float = 1.0) -> np.ndarray:
    """Draw a random strictly-positive potential matrix.

    Rows are Dirichlet-distributed so each source state induces a proper
    conditional distribution over destination states, matching how the
    paper "randomly encode[s] generated beliefs into the input files".
    """
    mat = rng.dirichlet(np.full(n_states, concentration), size=n_states)
    return np.asarray(mat, dtype=_FLOAT)


def attractive_potential(n_states: int, strength: float = 0.9) -> np.ndarray:
    """Smoothing potential favouring equal states — the classic image-
    correction coupling (probability ``strength`` of agreeing, remainder
    spread over disagreeing states)."""
    if not 0.0 < strength < 1.0:
        raise ValueError("strength must be in (0, 1)")
    if n_states < 2:
        raise ValueError("attractive potential needs at least 2 states")
    off = (1.0 - strength) / (n_states - 1)
    mat = np.full((n_states, n_states), off, dtype=_FLOAT)
    np.fill_diagonal(mat, strength)
    return mat
