"""Micro-batched BP execution: many queries, one driver run.

Concurrent queries against the same registered graph differ only in
their evidence clamps.  :func:`run_batched` materializes ``K`` disjoint
replicas of the graph inside **one** :class:`~repro.core.graph.BeliefGraph`
(block-diagonal adjacency, shared potential store), clamps each replica
with its query's evidence, and hands the union to
:meth:`LoopyBP.run_replicas <repro.core.loopy.LoopyBP.run_replicas>`,
the one BP driver loop: it keeps one solo schedule per replica and
issues *one* kernel call per iteration covering every live query's
active elements.  That is the Gonzalez-style amortization the serving
layer is built around — graph residency and kernel dispatch are paid
once per batch, not once per query.

Replicas are disjoint and carry the base graph's priors bit for bit, so
each query's ``iterations``, ``converged``, ``delta_history`` and
beliefs are exactly those of a solo run on a copied, observed graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP, LoopyConfig, LoopyResult
from repro.core.observation import observe
from repro.core.potentials import PerEdgePotentialStore, SharedPotentialStore
from repro.core.state import LoopyState

# not called here: the benchmark's layer probe (perfbench/layers.py)
# wraps this name in this module
from repro.kernels.compiled import make_executor  # noqa: F401

__all__ = ["replicate_graph", "reset_union", "run_batched"]


def replicate_graph(graph: BeliefGraph, k: int) -> BeliefGraph:
    """``k`` disjoint copies of ``graph`` in one block-diagonal union.

    Replica ``q`` owns nodes ``[q*n, (q+1)*n)`` and edges
    ``[q*m, (q+1)*m)``.  The shared potential matrix stays shared across
    all replicas (one ``(b, b)`` matrix for ``k*m`` edges), which is what
    keeps the union's footprint near ``k×`` beliefs rather than ``k×``
    everything.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not graph.uniform:
        raise ValueError("micro-batching requires constant-width beliefs")
    n, m = graph.n_nodes, graph.n_edges
    priors = np.tile(np.asarray(graph.priors.dense(), dtype=np.float32), (k, 1))
    offsets_n = np.repeat(np.arange(k, dtype=np.int64) * n, m)
    src = np.tile(graph.src, k) + offsets_n
    dst = np.tile(graph.dst, k) + offsets_n
    rev = np.tile(graph.reverse_edge, k)
    paired = rev >= 0
    rev[paired] += np.repeat(np.arange(k, dtype=np.int64) * m, m)[paired]
    if graph.potentials.shared:
        pots = SharedPotentialStore(graph.potentials.matrix(0), k * m)
    else:
        pots = PerEdgePotentialStore(np.tile(graph.potentials.stacked(), (k, 1, 1)))
    union = BeliefGraph(priors, src, dst, pots, reverse_edge=rev, layout=graph.layout)
    # The constructor normalizes priors again, which moves last bits at
    # b >= 3; the replicas must hold the base graph's rows exactly.
    union.priors.load_dense(priors)
    union.beliefs.load_dense(priors)
    return union


def reset_union(union: BeliefGraph) -> None:
    """Return a cached union to its pristine (evidence-free) state."""
    union.observed[:] = False
    union.observed_state[:] = -1
    union.reset_beliefs()


def run_batched(
    graph: BeliefGraph,
    config: LoopyConfig,
    evidences: list,
    *,
    union: BeliefGraph | None = None,
) -> tuple[list[LoopyResult], BeliefGraph]:
    """Run ``len(evidences)`` BP queries in one batched execution.

    ``evidences[q]`` is a list of ``(node_id, state)`` clamps for query
    ``q``.  ``union`` optionally recycles a previously built replica
    graph of matching width (it is reset in place); the one used is
    returned for caching.  Results are index-aligned with ``evidences``;
    each one's ``run_stats`` is the whole batch's.  The union's belief
    store is not written back: each posterior was snapshotted when its
    own run stopped, and a recycled union is reset before reuse anyway.
    """
    k = len(evidences)
    if k == 0:
        raise ValueError("empty batch")
    n = graph.n_nodes
    if union is None or union.n_nodes != k * n:
        union = replicate_graph(graph, k)
    else:
        reset_union(union)
    for q, evidence in enumerate(evidences):
        for node, state in evidence:
            observe(union, q * n + int(node), int(state))
    return LoopyBP(config).run_replicas(LoopyState(union), k), union
