"""LRU result cache for served queries.

Posteriors are pure functions of ``(graph, evidence, convergence config,
backend, schedule)``, so identical queries against an unchanged model can
be answered without running BP at all.  The *model generation* — bumped
by :meth:`repro.serve.registry.ModelRegistry.reload` and
:meth:`~repro.serve.registry.ModelRegistry.update` — is part of the
key, which makes invalidation-on-reload automatic: entries for a stale
generation can never be hit again and age out of the LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["ResultCache", "cache_key", "freeze_evidence", "copy_posteriors"]


def cache_key(
    model: str,
    generation: int,
    evidence: tuple[tuple[int, int], ...],
    threshold: float,
    max_iterations: int,
    backend: str,
    schedule: str,
) -> tuple:
    """Canonical cache key; ``evidence`` must be sorted (node, state) pairs.

    ``generation`` is the model's generation, which every ``reload`` and
    non-empty ``update`` bumps, so stale posteriors are unreachable
    after either: BP posteriors are globally coupled, and the key must
    reflect the whole graph's state.
    """
    return (model, generation, evidence, threshold, max_iterations, backend,
            schedule)


class ResultCache:
    """Bounded LRU of query posteriors (thread-safe).

    ``capacity == 0`` disables the cache (every lookup misses, nothing is
    stored), which is the cache-off ablation mode of the benchmark.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple):
        with self._lock:
            if self.capacity == 0:
                self.misses += 1
                return None
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value) -> None:
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_model(self, model: str) -> int:
        """Drop every entry of ``model`` (any generation); returns count.

        Generation-keying already prevents stale hits after a reload —
        this additionally frees the memory eagerly.
        """
        with self._lock:
            stale = [k for k in self._entries if k[0] == model]
            for k in stale:
                del self._entries[k]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }


def freeze_evidence(evidence) -> tuple[tuple[int, int], ...]:
    """Sorted, hashable form of an ``{node_id: state}`` mapping."""
    return tuple(sorted((int(n), int(s)) for n, s in dict(evidence).items()))


def copy_posteriors(beliefs: np.ndarray) -> np.ndarray:
    """Defensive copy used on both cache store and cache hit."""
    return np.array(beliefs, copy=True)
