"""Unoptimized reference backend: pure-Python per-node loops.

This is the "before" picture — no vectorization, no compressed index
reuse, per-edge matrix loads — and also the only engine that handles
heterogeneous (ragged) state counts, i.e. networks converted from BIF
files before the §2.2 shared-matrix refinement.  Its results feed the
correctness tests; its wall time is the denominator of nothing (the paper
compares against the *optimized* C control), but it shows the cost of
naive processing.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, RunResult
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.numeric import EPS as _TINY  # shared float64 floor
from repro.core.sweepstats import RunStats, SweepStats

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Backend):
    """Pure-Python loopy BP (sum-product with cavity messages)."""

    name = "reference"
    platform = "cpu"
    paradigm = "node"

    def supports(self, graph: BeliefGraph) -> bool:
        return True  # including ragged graphs

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,  # accepted for interface parity; unused
        update_rule: str = "sum_product",
    ) -> RunResult:
        crit = criterion or ConvergenceCriterion()
        n = graph.n_nodes

        priors = []
        for i in range(n):
            p = np.asarray(graph.priors.get(i), dtype=np.float64)
            if graph.observed[i]:
                p = np.full(int(graph.dims[i]), _TINY)
                p[int(graph.observed_state[i])] = 1.0
            priors.append(np.maximum(p, _TINY))
        beliefs = [p / p.sum() for p in priors]
        messages = [
            np.full(int(graph.dims[graph.dst[e]]), 1.0 / int(graph.dims[graph.dst[e]]))
            for e in range(graph.n_edges)
        ]

        run_stats = RunStats()
        history: list[float] = []
        converged = False
        iteration = 0

        def compute(fn):
            import time

            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

        def one_pass() -> float:
            delta = 0.0
            new_messages = [None] * graph.n_edges
            for e in range(graph.n_edges):
                u = int(graph.src[e])
                rev = int(graph.reverse_edge[e])
                cavity = priors[u].copy()
                for inc in graph.in_edges(u):
                    if int(inc) != rev:
                        cavity = cavity * messages[int(inc)]
                total = cavity.sum()
                if total > 0:
                    cavity /= total
                if update_rule == "broadcast":
                    cavity = np.asarray(beliefs[u], dtype=np.float64)
                mat = np.asarray(graph.potentials.matrix(e), dtype=np.float64)
                msg = cavity @ mat
                total = msg.sum()
                new_messages[e] = msg / total if total > 0 else np.full_like(msg, 1.0 / len(msg))
            for e in range(graph.n_edges):
                messages[e] = new_messages[e]
            for v in range(n):
                combined = priors[v].copy()
                for e in graph.in_edges(v):
                    combined = combined * messages[int(e)]
                total = combined.sum()
                new_belief = (
                    combined / total if total > 0 else np.full_like(combined, 1.0 / len(combined))
                )
                if graph.observed[v]:
                    new_belief = beliefs[v]
                delta += float(np.abs(new_belief - beliefs[v]).sum())
                beliefs[v] = new_belief
            return delta

        wall = 0.0
        while iteration < crit.max_iterations:
            iteration += 1
            delta, dt = compute(one_pass)
            wall += dt
            history.append(delta)
            stats = SweepStats(
                nodes_processed=n,
                edges_processed=graph.n_edges,
                reduction_elems=n,
                kernel_launches=1,
            )
            run_stats.append(stats)
            if crit.is_converged(delta):
                converged = True
                break

        width = graph.beliefs.width
        dense = np.zeros((n, width), dtype=np.float32)
        for i in range(n):
            dense[i, : len(beliefs[i])] = beliefs[i]
            graph.beliefs.set(i, beliefs[i].astype(np.float32))

        return RunResult(
            backend=self.name,
            beliefs=dense,
            iterations=iteration,
            converged=converged,
            wall_time=wall,
            modeled_time=wall,  # the reference *is* its own hardware
            delta_history=history,
            stats=run_stats.total,
        )
