"""Heavy-tailed social/web graph stand-ins (paper Table 1).

The paper's real graphs (Gowalla, Google+, Pokec, LiveJournal, Orkut,
Twitter, the web crawls …) come from the network repository and are not
available offline.  Their role in the evaluation is purely structural —
size plus a power-law degree distribution with a dense core — so a
preferential-attachment generator with a tunable mean degree produces
faithful stand-ins.  The generator is vectorized: targets for each batch
of new nodes are drawn from the current repeated-endpoint pool
(Barabási–Albert via the standard repeated-nodes trick).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential
from repro.graphs.synthetic import random_priors

__all__ = ["preferential_attachment_edges", "social_graph"]


def preferential_attachment_edges(
    n_nodes: int, edges_per_node: int, rng: np.random.Generator
) -> np.ndarray:
    """Barabási–Albert edge list: each arriving node attaches to
    ``edges_per_node`` existing endpoints sampled ∝ degree."""
    m = max(1, edges_per_node)
    if n_nodes <= m:
        raise ValueError("n_nodes must exceed edges_per_node")
    # endpoint pool: each edge contributes both ends; sampling the pool
    # uniformly is sampling nodes proportionally to degree
    pool = np.zeros(2 * m * n_nodes, dtype=np.int64)
    pool_size = 0
    edges = np.empty((m * (n_nodes - m - 1) + m, 2), dtype=np.int64)
    e = 0
    # seed clique-ish star over the first m+1 nodes
    for v in range(1, m + 1):
        edges[e] = (v, 0)
        pool[pool_size : pool_size + 2] = (v, 0)
        pool_size += 2
        e += 1
    for v in range(m + 1, n_nodes):
        picks = pool[rng.integers(0, pool_size, size=3 * m)]
        targets = np.unique(picks)[:m]
        if len(targets) < m:  # rare on tiny pools: top up uniformly
            extra = rng.integers(0, v, size=m - len(targets))
            targets = np.concatenate([targets, extra])
        for t in targets[:m]:
            edges[e] = (v, t)
            pool[pool_size : pool_size + 2] = (v, t)
            pool_size += 2
            e += 1
    return edges[:e]


def social_graph(
    n_nodes: int,
    n_edges: int,
    *,
    n_states: int = 2,
    seed: int = 0,
    coupling: float = 0.75,
) -> BeliefGraph:
    """A social-network stand-in of approximately ``n_edges`` edges."""
    rng = np.random.default_rng(seed)
    per_node = max(1, round(n_edges / max(n_nodes - 1, 1)))
    edges = preferential_attachment_edges(n_nodes, per_node, rng)
    priors = random_priors(n_nodes, n_states, rng)
    return BeliefGraph.from_undirected(
        priors, edges, attractive_potential(n_states, coupling)
    )
