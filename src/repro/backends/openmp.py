"""Simulated OpenMP backend (paper §2.4).

The paper's OpenMP attempt *hurt* performance on 131 of 132 benchmarks:
"There is simply not enough work per thread to justify the overhead of
spinning and shutting down threads", the tail-heavy degree distribution
defeats the static scheduler, the dynamic scheduler's per-chunk dispatch
costs more than it saves, and hyperthreading contends for shared
resources.  The average penalties were ≈1.17× (2 threads), 1.65× (4) and
4.03× (8, i.e. with hyperthreading on the 4-core i7), improving only to
1.1×/1.2× with hyperthreading disabled.

This backend executes the same numerics as the C backends and models the
parallel runtime explicitly from those mechanisms:

* three fork-join parallel regions per iteration (collect, compute/send,
  convergence reduction), each paying a barrier that grows with the
  thread count;
* memory-bound scaling: the streaming kernels are already bandwidth
  limited at one core, so threads add coherence traffic instead of speed;
* a straggler factor from degree skew under static scheduling, or
  per-chunk dispatch overhead under dynamic scheduling;
* a hyperthread resource-sharing penalty when threads exceed physical
  cores.
"""

from __future__ import annotations

from repro.backends.base import Backend, RunResult
from repro.backends.cpu_cost import (
    CpuSpec,
    I7_7700HQ,
    cache_lines_per_access,
    cpu_sweep_cost,
)
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP
from repro.core.sweepstats import SweepStats

__all__ = ["OpenMPBackend"]

#: parallel regions per BP iteration (§2.4: collect / compute+send /
#: convergence reduction)
_REGIONS_PER_ITER = 3
#: barrier + team wake cost: base plus per-thread component, seconds
_FORK_BASE = 9e-6
_FORK_PER_THREAD = 2.5e-6
#: coherence / bus contention added per extra thread on memory-bound code
_BUS_CONTENTION_PER_THREAD = 0.05
#: extra interference per thread when hyperthreading is enabled (§2.4:
#: "memory stalls and hyperthreading due to its usage of shared resources")
_HT_INTERFERENCE = 0.065
#: multiplier on memory time once threads exceed physical cores
_HT_STALL_FACTOR = 1.75
#: dynamic scheduler dispatch per work chunk, seconds
_DYNAMIC_DISPATCH = 0.9e-6
_DYNAMIC_CHUNK = 64
#: fraction of a full core each extra hyperthread contributes
_HYPERTHREAD_FACTOR = 0.3


class OpenMPBackend(Backend):
    """Fork-join multicore execution with §2.4's overhead model."""

    name = "openmp"
    platform = "cpu"
    paradigm = "node"

    def __init__(
        self,
        threads: int = 8,
        cpu: CpuSpec = I7_7700HQ,
        *,
        paradigm: str = "node",
        schedule: str = "static",
        hyperthreading: bool = True,
    ):
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if schedule not in ("static", "dynamic"):
            raise ValueError("schedule must be 'static' or 'dynamic'")
        self.threads = threads
        self.cpu = cpu
        self.paradigm = paradigm
        self.schedule = schedule
        self.hyperthreading = hyperthreading

    def supports(self, graph: BeliefGraph) -> bool:
        return graph.uniform

    # ------------------------------------------------------------------
    def _parallel_sweep_time(self, graph: BeliefGraph, sweep: SweepStats) -> float:
        cost = cpu_sweep_cost(
            self.cpu,
            sweep,
            gather_bytes=4.0 * graph.n_states,
            cache_lines_per_access=cache_lines_per_access("aos", graph.n_states),
        )
        t = self.threads
        if t == 1:
            return cost.total

        # Compute-bound work scales across cores; hyperthreads contribute
        # only a fraction of a core each.
        compute_scale = float(min(t, self.cpu.physical_cores))
        if t > self.cpu.physical_cores:
            extra = min(t, self.cpu.logical_cores) - self.cpu.physical_cores
            compute_scale += extra * _HYPERTHREAD_FACTOR

        # Memory-bound work does not scale — one core already saturates the
        # stream — and coherence traffic plus shared-resource interference
        # make it *slower* with every added thread (§2.4).
        contention = 1.0 + _BUS_CONTENTION_PER_THREAD * (t - 1)
        if self.hyperthreading:
            contention += _HT_INTERFERENCE * (t - 1)
        if t > self.cpu.physical_cores:
            contention *= _HT_STALL_FACTOR
        memory_time = cost.memory_bound * contention

        # Straggler from the tail-heavy degree distribution (static) or
        # per-chunk dispatch overhead (dynamic; §2.4: "switching to the
        # dynamic scheduler worsened the problem").
        body = cost.cpu_bound / compute_scale + memory_time
        indeg = graph.in_degree()
        avg = float(indeg.mean()) if len(indeg) else 0.0
        peak = float(indeg.max(initial=0))
        skew = min(peak / avg, 32.0) if avg > 0 else 1.0
        if self.schedule == "static":
            body *= 1.0 + 0.04 * (skew - 1.0) * (1.0 - 1.0 / t)
        else:
            n_items = max(sweep.nodes_processed, sweep.edges_processed)
            body += (n_items / _DYNAMIC_CHUNK) * _DYNAMIC_DISPATCH

        fork = _REGIONS_PER_ITER * (_FORK_BASE + _FORK_PER_THREAD * t)
        # atomic combine contention across threads (edge paradigm)
        atomics = sweep.atomic_ops * 6e-9 * (1.0 - 1.0 / t)
        return body + fork + atomics

    # ------------------------------------------------------------------
    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        update_rule: str = "sum_product",
    ) -> RunResult:
        """``schedule`` here is the BP scheduling policy; the *OMP loop*
        schedule (static/dynamic) is the constructor's ``schedule``."""
        assert self.paradigm is not None
        config = self._loopy_config(self.paradigm, criterion, schedule, update_rule)
        loopy, wall = self._timed(LoopyBP(config).run, graph)
        modeled = sum(
            self._parallel_sweep_time(graph, sweep)
            for sweep in loopy.run_stats.per_iteration
        )
        return self._result_from_loopy(
            self.name,
            loopy,
            wall,
            modeled,
            threads=self.threads,
            schedule=config.schedule,
            omp_schedule=self.schedule,
            hyperthreading=self.hyperthreading,
        )
