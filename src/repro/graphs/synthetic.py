"""Synthetic N-nodes / M-edges random graphs (paper Table 1).

The paper's ``10_nodes_40_edges`` … ``2000000_nodes_8000000_edges``
family: uniform random endpoint pairs with "randomly encode[d] generated
beliefs" (§4).  Self loops are dropped and duplicate undirected pairs
deduplicated, matching the effective edge counts a uniform generator
yields.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential, random_potential

__all__ = ["random_edges", "synthetic_graph", "random_priors"]


def random_edges(n_nodes: int, n_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random endpoint pairs (self loops filtered, so slightly
    fewer than ``n_edges`` rows can come back for tiny graphs)."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    edges = rng.integers(0, n_nodes, size=(n_edges, 2), dtype=np.int64)
    mask = edges[:, 0] != edges[:, 1]
    # redraw loops once; residual loops (rare) are dropped by the graph
    redraw = np.flatnonzero(~mask)
    if len(redraw):
        edges[redraw] = rng.integers(0, n_nodes, size=(len(redraw), 2), dtype=np.int64)
    return edges


def random_priors(
    n_nodes: int, n_states: int, rng: np.random.Generator, *, concentration: float = 1.0
) -> np.ndarray:
    """Dirichlet-random prior beliefs (the paper's "randomly encode[d]
    generated beliefs")."""
    return rng.dirichlet(np.full(n_states, concentration), size=n_nodes).astype(np.float32)


def synthetic_graph(
    n_nodes: int,
    n_edges: int,
    *,
    n_states: int = 2,
    seed: int = 0,
    coupling: float | None = 0.75,
) -> BeliefGraph:
    """Build one ``NxM`` synthetic benchmark graph.

    ``coupling`` sets the shared potential's diagonal preference (§2.2
    shared-matrix mode); pass ``None`` for a seeded random potential.
    """
    rng = np.random.default_rng(seed)
    edges = random_edges(n_nodes, n_edges, rng)
    priors = random_priors(n_nodes, n_states, rng)
    if coupling is None:
        potential = random_potential(n_states, rng)
    else:
        potential = attractive_potential(n_states, coupling)
    return BeliefGraph.from_undirected(priors, edges, potential)
