"""2-D lattice MRFs (the image-correction substrate).

4-connected pixel grids, the classic BP topology for vision workloads
(the paper's third use case and its Grauer-Gray related work).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential
from repro.graphs.synthetic import random_priors

__all__ = ["grid_edges", "grid_graph"]


def grid_edges(rows: int, cols: int) -> np.ndarray:
    """Undirected 4-neighbourhood edges of a ``rows × cols`` lattice,
    nodes numbered row-major."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horizontal = np.column_stack([ids[:, :-1].reshape(-1), ids[:, 1:].reshape(-1)])
    vertical = np.column_stack([ids[:-1, :].reshape(-1), ids[1:, :].reshape(-1)])
    return np.vstack([horizontal, vertical])


def grid_graph(
    rows: int,
    cols: int,
    *,
    n_states: int = 2,
    seed: int = 0,
    coupling: float = 0.8,
) -> BeliefGraph:
    """A lattice belief graph with random priors and an attractive shared
    potential."""
    rng = np.random.default_rng(seed)
    priors = random_priors(rows * cols, n_states, rng)
    return BeliefGraph.from_undirected(
        priors, grid_edges(rows, cols), attractive_potential(n_states, coupling),
        dedupe=False,
    )
