"""The original three-phase belief propagation (paper §2.1).

"To simplify processing, one can break up the BP into three phases. First,
one emits the φ-based updates before emitting the ψ-based updates.
Afterwards, one calculates the marginals. A major limitation of this method
is that the updates must be ordered" — level by level between the roots and
the terminal nodes.

This implementation mirrors the paper's control: a **level-scheduled,
per-node sequential** engine.  It determines BFS levels, runs a collect
pass (deepest level toward the roots) and a distribute pass (roots outward)
with proper cavity messages, then marginalizes.  On trees one round of the
two passes is exact (verified against :mod:`repro.core.exact` in the test
suite).  On cyclic graphs the ordered passes repeat until the usual
convergence criterion is met — and, exactly as §2.1.1 reports, the level
determination and tiny per-level steps make this dramatically slower than
the loopy kernels (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.numeric import TINY as _TINY  # shared 1e-30 floor
from repro.core.sweepstats import RunStats, SweepStats

__all__ = ["TreeBP", "TreeBPResult", "bfs_levels"]


def bfs_levels(graph: BeliefGraph, roots: list[int] | None = None) -> np.ndarray:
    """BFS level of every node, starting one root per component.

    This is the "determining the levels of a graph" overhead the paper
    blames for the original algorithm's poor performance.  Unreached nodes
    (none, since every component gets a root) would be level −1.
    """
    levels = np.full(graph.n_nodes, -1, dtype=np.int64)
    pending = list(roots) if roots else []
    next_auto = 0
    while True:
        root = -1
        while pending:
            cand = pending.pop()
            if levels[cand] == -1:
                root = cand
                break
        if root == -1:
            while next_auto < graph.n_nodes and levels[next_auto] != -1:
                next_auto += 1
            if next_auto == graph.n_nodes:
                break
            root = next_auto
        levels[root] = 0
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            nxt: list[int] = []
            for u in frontier:
                for e in graph.out_edges(u):
                    v = int(graph.dst[e])
                    if levels[v] == -1:
                        levels[v] = depth
                        nxt.append(v)
            frontier = nxt
    return levels


@dataclass
class TreeBPResult:
    """Outcome of a three-phase BP run."""

    beliefs: np.ndarray
    iterations: int
    converged: bool
    delta_history: list[float]
    run_stats: RunStats
    levels: np.ndarray

    def belief(self, node: int) -> np.ndarray:
        return self.beliefs[node]


@dataclass
class TreeBP:
    """Level-scheduled three-phase BP (the paper's non-loopy control).

    ``rounds`` caps how many collect+distribute rounds run on cyclic
    inputs; on a tree one round is exact and the run stops after round two
    confirms convergence.
    """

    criterion: ConvergenceCriterion = field(default_factory=ConvergenceCriterion)
    roots: list[int] | None = None

    def run(self, graph: BeliefGraph) -> TreeBPResult:
        n, b = graph.n_nodes, graph.n_states
        levels = bfs_levels(graph, self.roots)
        run_stats = RunStats()

        # floored in float32 as stored; the padding is the float64 floor
        priors = np.where(
            np.arange(b) < graph.dims[:, None],
            np.maximum(graph.priors, _TINY),
            np.float64(_TINY),
        )
        for i in np.flatnonzero(graph.observed):
            vec = np.full(b, _TINY)
            vec[int(graph.observed_state[i])] = 1.0
            priors[i] = vec

        # messages[e]: current message along directed edge e
        messages = np.full((graph.n_edges, b), 1.0 / b, dtype=np.float64)

        # Ordered schedules: collect processes edges from deeper source to
        # shallower destination; distribute the opposite.  Edges between
        # equal levels (cycles only) run in both phases.
        src_lv = levels[graph.src]
        dst_lv = levels[graph.dst]
        collect = np.flatnonzero(src_lv >= dst_lv)
        collect = collect[np.argsort(-src_lv[collect], kind="stable")]
        distribute = np.flatnonzero(src_lv <= dst_lv)
        distribute = distribute[np.argsort(src_lv[distribute], kind="stable")]

        beliefs = priors / np.maximum(priors.sum(axis=1, keepdims=True), _TINY)
        history: list[float] = []
        converged = False
        iteration = 0
        level_count = int(levels.max(initial=0)) + 1

        while iteration < self.criterion.max_iterations:
            iteration += 1
            stats = SweepStats(kernel_launches=2 * level_count)
            for schedule in (collect, distribute):
                for e in schedule:
                    self._emit(graph, priors, messages, int(e), stats)
            new_beliefs = self._marginalize(graph, priors, messages, stats)
            delta = float(np.abs(new_beliefs - beliefs).sum())
            beliefs = new_beliefs
            history.append(delta)
            stats.reduction_elems = n
            run_stats.append(stats)
            if self.criterion.is_converged(delta):
                converged = True
                break

        out = beliefs.astype(np.float32)
        np.copyto(graph.beliefs, out)
        graph._reclamp()
        return TreeBPResult(
            beliefs=out,
            iterations=iteration,
            converged=converged,
            delta_history=history,
            run_stats=run_stats,
            levels=levels,
        )

    # ------------------------------------------------------------------
    def _emit(
        self,
        graph: BeliefGraph,
        priors: np.ndarray,
        messages: np.ndarray,
        e: int,
        stats: SweepStats,
    ) -> None:
        """Recompute the message along directed edge ``e`` (cavity rule),
        one edge at a time — the sequential, matrix-per-edge processing the
        paper identifies as the bottleneck."""
        u = int(graph.src[e])
        rev = int(graph.reverse_edge[e])
        cavity = priors[u].copy()
        for inc in graph.in_edges(u):
            if int(inc) != rev:
                cavity *= messages[int(inc)]
        total = cavity.sum()
        if total > 0:
            cavity /= total
        # "Loading and unloading a separate matrix per belief update
        # computation" (§2.2) — fetched per edge here, per the original.
        mat = np.asarray(graph.potentials.matrix(e), dtype=np.float64)
        msg = cavity[: mat.shape[0]] @ mat
        total = msg.sum()
        messages[e, : mat.shape[1]] = msg / total if total > 0 else 1.0 / mat.shape[1]
        b = mat.shape[0]
        stats.edges_processed += 1
        stats.flops += 2 * b * b + 2 * b
        stats.random_bytes += 2 * b * 4 + b * b * 4

    def _marginalize(
        self,
        graph: BeliefGraph,
        priors: np.ndarray,
        messages: np.ndarray,
        stats: SweepStats,
    ) -> np.ndarray:
        beliefs = priors.copy()
        for v in range(graph.n_nodes):
            for e in graph.in_edges(v):
                beliefs[v] *= messages[int(e)]
            total = beliefs[v].sum()
            beliefs[v] = beliefs[v] / total if total > 0 else 1.0 / len(beliefs[v])
            stats.nodes_processed += 1
            stats.flops += 4 * beliefs.shape[1]
        return beliefs
