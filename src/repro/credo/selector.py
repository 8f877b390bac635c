"""Implementation selection: rule + classifier (paper §3.7).

Selection proceeds exactly as the paper lays out:

1. the extremes rule — ≤ 1 k nodes → C Edge, ≥ 100 k nodes → CUDA
   (it "accounts for 80 % of the benchmark graphs");
2. for everything else, the trained classifier predicts the winning
   *paradigm* (Node vs Edge) from the five metadata features;
3. the platform (C vs CUDA) comes from the belief-dependent transfer
   pivot of §3.6 — "100,000 for 2 beliefs and 1,000 for 32 beliefs" —
   interpolated log-linearly, which is the belief-count dependence
   Figure 11 points at.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.graph import BeliefGraph
from repro.credo.features import extract_features
from repro.credo.rules import LARGE_GRAPH_NODES, SMALL_GRAPH_NODES
from repro.credo.training import TrainingRow
from repro.ml.forest import RandomForestClassifier

__all__ = [
    "CredoSelector",
    "INCREMENTAL_DIRTY_MAX_FRACTION",
    "cuda_pivot_nodes",
]

#: above this dirty fraction an incremental re-convergence stops paying:
#: warm-started residual propagation re-touches most of the graph anyway,
#: so :meth:`CredoSelector.select_update_mode` falls back to a full run
INCREMENTAL_DIRTY_MAX_FRACTION = 0.25


def cuda_pivot_nodes(n_beliefs: int) -> float:
    """Node count above which CUDA beats C for ``n_beliefs`` (§3.6).

    Log-linear through the paper's anchors (2 beliefs → 100 k,
    32 beliefs → 1 k), clamped to the rule's extremes.
    """
    b = max(n_beliefs, 2)
    slope = math.log(100_000 / 1_000) / math.log(32 / 2)
    pivot = 100_000 * (b / 2.0) ** (-slope)
    return float(min(max(pivot, SMALL_GRAPH_NODES), LARGE_GRAPH_NODES))


class CredoSelector:
    """Rule + random-forest implementation chooser.

    ``fit`` takes the labelled rows from
    :func:`repro.credo.training.build_training_set`; an unfitted selector
    falls back to the rule plus the pivot with a size-based paradigm
    guess.
    """

    def __init__(self, classifier=None):
        # the paper's tuned configuration: max-depth 6, 14 estimators
        self.classifier = classifier or RandomForestClassifier(
            n_estimators=14, max_depth=6, random_state=0
        )
        self._fitted = False

    def fit(self, rows: list[TrainingRow]) -> "CredoSelector":
        """Train the paradigm classifier on labelled benchmark rows."""
        if not rows:
            raise ValueError("no training rows")
        X = np.array([row.features for row in rows])
        y = np.array([row.label for row in rows])
        self.classifier.fit(X, y)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def predict_paradigm(self, graph: BeliefGraph) -> str:
        """"node" or "edge" for the middle ground."""
        if self._fitted:
            return str(self.classifier.predict(extract_features(graph).reshape(1, -1))[0])
        # unfitted fallback: small graphs edge, large graphs node
        return "edge" if graph.n_nodes < 10_000 else "node"

    def select(self, graph: BeliefGraph) -> str:
        """Backend name for ``graph`` (one of the four core backends)."""
        return self.select_from_features(
            extract_features(graph) if self._fitted else None,
            n_nodes=graph.n_nodes,
            n_beliefs=graph.n_states,
        )

    def select_from_features(
        self,
        features: np.ndarray | None,
        *,
        n_nodes: int,
        n_beliefs: int,
    ) -> str:
        """Selection from metadata alone — the §3.7 promise: no graph
        needs to be materialized (see :func:`repro.io.scan.scan_mtx_stats`)."""
        if n_nodes <= SMALL_GRAPH_NODES:
            return "c-edge"
        if self._fitted and features is not None:
            paradigm = str(self.classifier.predict(features.reshape(1, -1))[0])
        else:
            paradigm = "edge" if n_nodes < 10_000 else "node"
        if n_nodes >= LARGE_GRAPH_NODES:
            # huge graphs: CUDA for sure; the paradigm may still be Edge
            # on architectures with cheap atomics (§4.4)
            return f"cuda-{paradigm}"
        platform = "cuda" if n_nodes >= cuda_pivot_nodes(n_beliefs) else "c"
        return f"{platform}-{paradigm}"

    # ------------------------------------------------------------------
    def select_update_mode(self, dirty_fraction: float) -> str:
        """``"incremental"`` or ``"full"`` for a graph delta (DESIGN.md §15).

        A delta dirtying more than :data:`INCREMENTAL_DIRTY_MAX_FRACTION`
        of the nodes re-touches most of the graph during warm-started
        propagation anyway — state migration plus seeding then costs more
        than it saves, so the engine runs a plain full convergence.
        Evidence-only and structural deltas share the one ceiling.
        """
        if dirty_fraction > INCREMENTAL_DIRTY_MAX_FRACTION:
            return "full"
        return "incremental"
