"""Exact inference by brute-force enumeration.

Not part of the paper's system — this is the *test oracle*: on graphs small
enough to enumerate (≲ 20 binary nodes) it computes the true marginals of
the pairwise MRF

    p(x) ∝ Π_i φ_i(x_i) · Π_{(u,v) ∈ undirected E} ψ_uv(x_u, x_v)

so the property-based tests can assert that tree BP is exact and that loopy
BP converges to the exact marginals on acyclic graphs.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.graph import BeliefGraph

__all__ = ["exact_marginals"]

_MAX_CONFIGS = 2_000_000


def _undirected_factors(graph: BeliefGraph) -> list[tuple[int, int, np.ndarray]]:
    """One (u, v, ψ) triple per undirected edge.

    A directed pair (e, rev) carries J and Jᵀ — the same factor — so only
    the lower-id member contributes; an unpaired directed edge contributes
    on its own.
    """
    factors = []
    for e in range(graph.n_edges):
        rev = int(graph.reverse_edge[e])
        if rev == -1 or e < rev:
            factors.append((int(graph.src[e]), int(graph.dst[e]), np.asarray(graph.potentials.matrix(e), dtype=np.float64)))
    return factors


def _state_ranges(graph: BeliefGraph) -> list[range]:
    ranges = []
    for i in range(graph.n_nodes):
        if graph.observed[i]:
            s = int(graph.observed_state[i])
            ranges.append(range(s, s + 1))
        else:
            ranges.append(range(int(graph.dims[i])))
    return ranges


def _enumerate(graph: BeliefGraph):
    ranges = _state_ranges(graph)
    n_configs = 1
    for r in ranges:
        n_configs *= len(r)
        if n_configs > _MAX_CONFIGS:
            raise ValueError(
                f"graph too large for exact enumeration (> {_MAX_CONFIGS} configurations)"
            )
    priors = graph.priors.astype(np.float64)
    factors = _undirected_factors(graph)
    for assignment in itertools.product(*ranges):
        weight = 1.0
        for i, s in enumerate(assignment):
            weight *= priors[i][s]
        for u, v, psi in factors:
            weight *= psi[assignment[u], assignment[v]]
        yield assignment, weight


def exact_marginals(graph: BeliefGraph) -> np.ndarray:
    """True posterior marginals, ``(n, width)`` (padded for ragged dims).

    Observed nodes come back as their one-hot clamp.  Raises
    ``ValueError`` when the joint has zero total mass (contradictory
    evidence) or the state space is too large.
    """
    marg = np.zeros((graph.n_nodes, graph.n_states), dtype=np.float64)
    total = 0.0
    for assignment, weight in _enumerate(graph):
        total += weight
        for i, s in enumerate(assignment):
            marg[i, s] += weight
    if total <= 0.0:
        raise ValueError("joint distribution has zero mass (contradictory evidence?)")
    return (marg / total).astype(np.float64)
