"""The §5.2 frameworks' bread-and-butter algorithms.

SSSP, BFS, PageRank and connected components, each written against the
frontier framework or the semiring engine — demonstrating that the
frameworks *do* handle "common algorithms" cleanly (validated against
networkx in the tests) before :mod:`repro.frameworks.limits` shows why
BP is different.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks.csr import CsrGraph
from repro.frameworks.frontier import FrontierFramework, FrontierProgram
from repro.frameworks.semiring import PLUS_TIMES, SemiringSpmv

__all__ = ["sssp", "bfs_depths", "pagerank", "connected_components"]


def sssp(graph: CsrGraph, source: int) -> np.ndarray:
    """Single-source shortest paths via frontier relaxation
    (Bellman-Ford-style advance with a min combine)."""
    if not 0 <= source < graph.n_nodes:
        raise IndexError("source out of range")
    program = FrontierProgram(
        advance=lambda src_vals, weights, _dst: src_vals + weights,
        combine="min",
    )
    values = np.full(graph.n_nodes, np.inf)
    values[source] = 0.0
    result = FrontierFramework(graph).run(program, values, np.array([source]))
    return result.values


def bfs_depths(graph: CsrGraph, source: int) -> np.ndarray:
    """BFS level per node (−1 when unreachable) via unit-weight SSSP."""
    unit = CsrGraph(
        graph.n_nodes,
        np.repeat(np.arange(graph.n_nodes), np.diff(graph.offsets)),
        graph.col,
        np.ones(graph.n_edges),
    )
    dist = sssp(unit, source)
    depths = np.where(np.isfinite(dist), dist, -1.0)
    return depths.astype(np.int64)


def pagerank(
    graph: CsrGraph, *, damping: float = 0.85, tol: float = 1e-10, max_iterations: int = 200
) -> np.ndarray:
    """PageRank as plus-times semiring SpMV iteration (the nvGRAPH demo)."""
    n = graph.n_nodes
    out_deg = graph.out_degree().astype(np.float64)
    # column-stochastic edge weights: 1/outdeg(src)
    src = np.repeat(np.arange(n), np.diff(graph.offsets))
    norm = CsrGraph(n, src, graph.col, 1.0 / np.maximum(out_deg[src], 1.0))
    engine = SemiringSpmv(norm)
    dangling = out_deg == 0

    def post(y: np.ndarray) -> np.ndarray:
        dangling_mass = 0.0
        if dangling.any():
            dangling_mass = damping * post.current[dangling].sum() / n
        out = (1.0 - damping) / n + damping * y + dangling_mass
        post.current = out
        return out

    post.current = np.full(n, 1.0 / n)
    x, _ = engine.iterate(
        post.current, PLUS_TIMES, post=post, tol=tol, max_iterations=max_iterations
    )
    return x / x.sum()


def connected_components(graph: CsrGraph) -> np.ndarray:
    """Weakly connected components by min-label propagation (frontier)."""
    # symmetrize
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.offsets))
    both_src = np.concatenate([src, graph.col])
    both_dst = np.concatenate([graph.col, src])
    sym = CsrGraph(graph.n_nodes, both_src, both_dst)
    program = FrontierProgram(
        advance=lambda src_vals, _w, _d: src_vals,
        combine="min",
    )
    labels = np.arange(graph.n_nodes, dtype=np.float64)
    result = FrontierFramework(sym).run(program, labels, np.arange(graph.n_nodes))
    # normalize labels to 0..k-1
    _, normalized = np.unique(result.values, return_inverse=True)
    return normalized
