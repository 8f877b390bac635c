"""Index sets over ``range(n)`` whose cost tracks the set, not ``n``.

A partial BP sweep touches k of n elements.  Deduplicating those k
indices, or scatter-adding into their rows, can go two ways:

*dense*
    one pass over an n-length buffer — ``np.bincount(..., minlength=n)``,
    a boolean membership mask then ``np.flatnonzero``.  Cheap per element
    but O(n) however small k is.
*compacted*
    a persistent *slot map* (one int32 per element of ``range(n)``,
    allocated once, never cleared) that deduplicates in O(k) with no
    sort: write each index's position into its slot, read the slots
    back, and the positions that survived are one representative per
    distinct index.

Compaction costs ~4× more per element and has a fixed cost of its own,
so :func:`is_sparse` picks it only for small subsets of large ranges,
from measured crossovers.  Both paths produce the same values in the
same order, so the choice never changes a posterior.

The out-edges of a node subset — a work queue's downstream frontier —
have the same two routes the other way round: a CSR gather costs per
out-edge, one mask over every edge costs per graph edge, and
:func:`frontier_by_mask` picks the mask for large subsets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SlotMap", "is_sparse", "frontier_by_mask"]

#: A k-element subset of ``range(n)`` takes the compacted path while
#: ``k * _SPARSE_DIVISOR + _DENSE_FLOOR < n``.  Measured on a 2-core Xeon
#: VM (NumPy 2.4), median of 41, n = 65,536, b = 2: the
#: ``store_messages`` scatter of 7 edges takes 204 µs dense vs 24 µs
#: compacted, 5,500 edges (n/12) 181 µs vs 162 µs, 8,000 edges 196 µs vs
#: 238 µs; sorted dedup (boolean mask vs slot map + sort of the distinct
#: values) crosses over between n/12 and n/8.  The floor is compaction's
#: fixed cost: 8 edges into 4 nodes take 15.6 µs dense vs 16.2 µs
#: compacted at n = 4,096, 37.5 µs vs 13.9 µs at n = 16,384, so a graph
#: of a few thousand elements stays dense.
_SPARSE_DIVISOR = 12
_DENSE_FLOOR = 4096


def is_sparse(k: int, n: int) -> bool:
    """Is a k-element subset of ``range(n)`` small enough for the
    compacted path?"""
    return k * _SPARSE_DIVISOR + _DENSE_FLOOR < n


#: The out-edges of a k-node subset of ``range(n)`` (or their
#: destinations) are found by one mask pass over every edge once
#: ``k * _FRONTIER_MASK_DIVISOR >= n``, and by the CSR gather below that.
#: The gather costs per out-edge, the mask per graph edge, so on a graph
#: of even-ish degree the crossover is a fraction of n whatever the
#: degree.  Measured on a 2-core Xeon VM (NumPy 2.4), the 200k-node,
#: 1.6M-directed-edge binary graph, random node sets, median of 15, the
#: work queue's dedup included, gather vs mask in ms: destinations 0.78
#: vs 3.4 at 1% of n, 4.4 vs 5.3 at 10%, 8.1 vs 8.1 at 20%, 18.3 vs 10.1
#: at 40%, 46.0 vs 14.7 at 100%; edge ids 0.56 vs 3.2 at 1%, 4.2 vs 5.7
#: at 10%, 7.5 vs 7.3 at 20%, 13.8 vs 8.2 at 40%, 33.7 vs 9.9 at 100%.
_FRONTIER_MASK_DIVISOR = 5


def frontier_by_mask(k: int, n: int) -> bool:
    """Is a k-node subset of ``range(n)`` large enough that its out-edges
    are cheaper to mark over every edge than to gather through the CSR?"""
    return k * _FRONTIER_MASK_DIVISOR >= n


class SlotMap:
    """Persistent slot map over ``range(n)`` for O(k) index-set work.

    The map is scratch owned by one sweeping thread: a state swept on
    several threads at once needs one map per thread.  Slots hold
    positions within one index set, so int32 (half the memory of the
    index type) is wide enough.
    """

    __slots__ = ("n", "_slots")

    def __init__(self, n: int):
        self.n = int(n)
        self._slots: np.ndarray | None = None

    def sparse(self, k: int) -> bool:
        """Is a k-element index set small enough for the compacted path?"""
        return is_sparse(k, self.n)

    def _representatives(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(winner, first)``: each position's slot winner (a position
        holding the same index) and the mask of winning positions."""
        if self._slots is None:
            self._slots = np.empty(self.n, dtype=np.int32)
        pos = np.arange(len(idx), dtype=np.int32)
        self._slots[idx] = pos
        winner = self._slots[idx]
        return winner, winner == pos

    def compact(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(rows, inv)`` with ``rows[inv] == idx``: every distinct value
        of ``idx`` once (unsorted), in O(len(idx)).  When ``idx`` has no
        duplicates, ``rows`` is ``idx`` itself and ``inv`` is None."""
        winner, first = self._representatives(idx)
        if np.count_nonzero(first) == len(idx):
            return idx, None
        rows = idx[first]
        inv = np.cumsum(first)[winner] - 1
        return rows, inv

    def unique(self, *parts: np.ndarray) -> np.ndarray:
        """Sorted distinct values across ``parts`` (``np.unique`` of their
        concatenation), int64."""
        if not is_sparse(sum(map(len, parts)), self.n):
            mask = np.zeros(self.n, dtype=bool)
            for part in parts:
                mask[part] = True
            return np.flatnonzero(mask)
        idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if idx.dtype != np.int64:
            idx = idx.astype(np.int64)
        _, first = self._representatives(idx)
        rows = idx[first]
        rows.sort()
        return rows
