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
"""

from __future__ import annotations

import numpy as np

__all__ = ["SlotMap", "is_sparse"]

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
        if not self.sparse(sum(len(part) for part in parts)):
            mask = np.zeros(self.n, dtype=bool)
            for part in parts:
                mask[part] = True
            return np.flatnonzero(mask)
        idx = np.asarray(parts[0] if len(parts) == 1 else np.concatenate(parts),
                         dtype=np.int64)
        _, first = self._representatives(idx)
        rows = idx[first]
        rows.sort()
        return rows
