"""The optimized single-threaded "C" backends (paper §3.3–§3.5).

These are the paper's control implementations: fully optimized
single-threaded engines for the Node and Edge processing paradigms, with
the AoS data layout, compressed adjacency indices and optional work
queues.  In this reproduction the vectorized NumPy kernels play the role
of compiled C; the wall clock measures them directly and the
:mod:`repro.backends.cpu_cost` model provides the deterministic modeled
time used for figure reproduction.
"""

from __future__ import annotations

from repro.backends.base import Backend, RunResult
from repro.backends.cpu_cost import CpuSpec, I7_7700HQ, cpu_sweep_time
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP

__all__ = ["CNodeBackend", "CEdgeBackend"]


class _CBackend(Backend):
    platform = "cpu"

    def __init__(self, cpu: CpuSpec = I7_7700HQ):
        self.cpu = cpu

    def supports(self, graph: BeliefGraph) -> bool:
        return graph.uniform

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        update_rule: str = "sum_product",
    ) -> RunResult:
        assert self.paradigm is not None
        config = self._loopy_config(self.paradigm, criterion, schedule, update_rule)
        loopy, wall = self._timed(LoopyBP(config).run, graph)
        gather_bytes = 4.0 * graph.n_states
        lines = graph.beliefs.cache_lines_per_access()
        modeled = sum(
            cpu_sweep_time(
                self.cpu,
                sweep,
                gather_bytes=gather_bytes,
                cache_lines_per_access=lines,
            )
            for sweep in loopy.run_stats.per_iteration
        )
        return self._result_from_loopy(
            self.name,
            loopy,
            wall,
            modeled,
            cpu=self.cpu.name,
            layout=graph.layout,
            schedule=config.schedule,
        )


class CNodeBackend(_CBackend):
    """Single-threaded per-node processing ("C Node")."""

    name = "c-node"
    paradigm = "node"


class CEdgeBackend(_CBackend):
    """Single-threaded per-edge processing ("C Edge") — the paper's
    control in the Credo-vs-always-C-Edge experiment (Fig. 11)."""

    name = "c-edge"
    paradigm = "edge"
