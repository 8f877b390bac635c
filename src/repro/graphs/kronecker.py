"""Kronecker / R-MAT graph generator (paper Table 1's kron-g500-logn*).

The kron-g500 instances are Graph500 Kronecker graphs: 2^logn nodes with
edges drawn recursively from the seed matrix [[A, B], [C, D]] =
[[0.57, 0.19], [0.19, 0.05]].  The vectorized R-MAT sampler below draws
all edge bits at once (one pass per level, per the vectorize-your-loops
guide), reproducing the heavy-tailed, core-periphery degree structure
that drives the paper's feature analysis (degree imbalance, skew).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential
from repro.graphs.synthetic import random_priors

__all__ = ["rmat_edges", "kronecker_graph", "GRAPH500_SEED"]

#: Graph500 reference initiator probabilities.
GRAPH500_SEED = (0.57, 0.19, 0.19, 0.05)


def rmat_edges(
    log2_nodes: int,
    n_edges: int,
    rng: np.random.Generator,
    *,
    seed_matrix: tuple[float, float, float, float] = GRAPH500_SEED,
) -> np.ndarray:
    """Sample ``n_edges`` R-MAT endpoint pairs over ``2**log2_nodes`` ids."""
    if log2_nodes < 1:
        raise ValueError("log2_nodes must be >= 1")
    a, b, c, d = seed_matrix
    total = a + b + c + d
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError("seed matrix probabilities must sum to 1")
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    # per recursion level choose one quadrant for every edge at once
    p_right = b + d  # probability the dst bit is 1
    p_bottom_given_right = d / p_right if p_right > 0 else 0.0
    p_bottom_given_left = c / (a + c) if (a + c) > 0 else 0.0
    for _level in range(log2_nodes):
        right = rng.random(n_edges) < p_right
        p_bottom = np.where(right, p_bottom_given_right, p_bottom_given_left)
        bottom = rng.random(n_edges) < p_bottom
        src = (src << 1) | bottom.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    return np.column_stack([src, dst])


def kronecker_graph(
    log2_nodes: int,
    n_edges: int,
    *,
    n_states: int = 2,
    seed: int = 0,
    coupling: float = 0.75,
) -> BeliefGraph:
    """A kron-g500-style belief graph (``2**log2_nodes`` ids; isolated ids
    remain as unconnected nodes with prior beliefs, as in the MTX files)."""
    rng = np.random.default_rng(seed)
    edges = rmat_edges(log2_nodes, n_edges, rng)
    edges = edges[edges[:, 0] != edges[:, 1]]
    n_nodes = 1 << log2_nodes
    priors = random_priors(n_nodes, n_states, rng)
    return BeliefGraph.from_undirected(
        priors, edges, attractive_potential(n_states, coupling)
    )
