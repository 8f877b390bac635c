"""Metadata feature extraction (paper §3.7, Figure 4).

"Our feature vector consists of the *number of nodes*, the *nodes to
edges ratio*, the *number of beliefs*, the *degree imbalance* (the ratio
of the max in-degree to the max out-degree) and the *skew* (the ratio of
average in-degree to max in-degree)."

Degrees are computed over the graph's **canonical directed edges** (each
undirected MRF edge counted once, in its input orientation) — that is the
form the metadata is available in "during input parsing", before the
bidirectional expansion.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.telemetry import get_tracer

__all__ = [
    "FEATURE_NAMES",
    "extract_features",
    "feature_matrix",
]

FEATURE_NAMES = (
    "n_nodes",
    "nodes_to_edges",
    "n_beliefs",
    "degree_imbalance",
    "skew",
)

def _cache(graph: BeliefGraph) -> dict:
    """The graph's memoization dict (older pickles may lack the slot)."""
    cache = getattr(graph, "_feature_cache", None)
    if cache is None:
        cache = graph._feature_cache = {}
    return cache


def _canonical_degrees(graph: BeliefGraph) -> tuple[np.ndarray, np.ndarray]:
    """In/out degrees over one orientation per undirected edge."""
    canonical = (graph.reverse_edge == -1) | (
        np.arange(graph.n_edges) < graph.reverse_edge
    )
    out_deg = np.bincount(graph.src[canonical], minlength=graph.n_nodes)
    in_deg = np.bincount(graph.dst[canonical], minlength=graph.n_nodes)
    return in_deg, out_deg


def extract_features(graph: BeliefGraph) -> np.ndarray:
    """The five-feature vector of §3.7 for one graph.

    Features depend only on the graph *structure* (never on beliefs or
    evidence), so they are memoized on the graph object — and shared by
    :meth:`~repro.core.graph.BeliefGraph.copy` clones — making repeated
    selection (the serving hot path) O(1) after the first call.  A
    structural in-place mutation must call
    :meth:`~repro.core.graph.BeliefGraph.invalidate_metadata_cache`.
    """
    cache = _cache(graph)
    cached = cache.get("base")
    if cached is not None:
        return cached.copy()
    # spanned only on the cache-miss path: repeated selection is O(1)
    # and should not clutter the trace
    with get_tracer().span("credo.features", cat="credo") as sp:
        in_deg, out_deg = _canonical_degrees(graph)
        n = graph.n_nodes
        m = int(in_deg.sum())  # canonical (undirected) edge count
        max_in = float(in_deg.max(initial=0))
        max_out = float(out_deg.max(initial=0))
        avg_in = float(in_deg.mean()) if n else 0.0
        feats = np.array(
            [
                float(n),
                n / m if m else 0.0,
                float(graph.n_states),
                max_in / max_out if max_out > 0 else 0.0,
                avg_in / max_in if max_in > 0 else 0.0,
            ],
            dtype=np.float64,
        )
        if sp:
            sp.set(n_nodes=n, n_edges=graph.n_edges)
    cache["base"] = feats
    return feats.copy()


def feature_matrix(graphs) -> np.ndarray:
    """Stack :func:`extract_features` over an iterable of graphs."""
    return np.array([extract_features(g) for g in graphs])
