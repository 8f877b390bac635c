"""Shard-parallel CPU backend over a measured partition (DESIGN.md §9).

Runs :class:`~repro.core.sharded.ShardedLoopyBP` on a thread pool — one
worker per shard — and models the wall clock of a bulk-synchronous
multi-core execution: per round, the *slowest* shard's sweep time (the
measured straggler, not an assumed 1.3×) plus the boundary exchange
through shared memory and a barrier.

This is the execution engine behind ``credo run --shards N`` and the
serving layer's shard-parallel path; real wall-clock speedup comes from
the BLAS matmuls inside the kernels releasing the GIL.

With ``policy="async"`` the modeled clock switches from bulk-synchronous
rounds to stale-synchronous ticks: there is no barrier term, each worker
lane accumulates its own busy time (work stealing keeps lanes loaded),
and the wall clock is the busiest lane — or the exchange stream, if the
halo traffic is the bottleneck.  Both modes report the time shards spent
waiting at (implicit or explicit) barriers as ``barrier_idle_s`` in the
result detail and in the process-wide metrics registry, so ``credo
profile`` can show the idle collapsing when the barrier goes away.
"""

from __future__ import annotations

import math

from repro.backends.base import Backend, RunResult
from repro.backends.cpu_cost import CpuSpec, I7_7700HQ, cpu_sweep_time
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.sharded import ShardedGraph, ShardedLoopyBP
from repro.partition import Partition, make_partition
from repro.telemetry import get_metrics

__all__ = ["ShardedCpuBackend"]

#: modeled cost of one pthread-barrier round per participating shard level
_BARRIER_SECONDS = 2e-6


class ShardedCpuBackend(Backend):
    """Partition → per-shard schedules → thread-pool sweeps, on one host."""

    name = "sharded"
    platform = "cpu"

    def __init__(
        self,
        *,
        n_shards: int = 4,
        partitioner: str = "bfs",
        paradigm: str = "node",
        cpu: CpuSpec = I7_7700HQ,
        max_workers: int | None = None,
        seed: int = 0,
        policy: str = "sync",
        staleness: int = 0,
        steal_factor: int = 8,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = n_shards
        self.partitioner = partitioner
        self.paradigm = paradigm
        self.cpu = cpu
        self.max_workers = max_workers
        self.seed = seed
        self.policy = policy
        self.staleness = staleness
        self.steal_factor = steal_factor

    def supports(self, graph: BeliefGraph) -> bool:
        return graph.uniform

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        work_queue: bool | None = None,
        update_rule: str = "sum_product",
        partition: Partition | None = None,
    ) -> RunResult:
        config = self._loopy_config(
            self.paradigm, criterion, schedule, update_rule, work_queue
        )
        if partition is None:
            partition = make_partition(
                graph, min(self.n_shards, max(graph.n_nodes, 1)),
                self.partitioner, seed=self.seed,
            )
        sharded = ShardedGraph.build(graph, partition)
        workers = self.max_workers or sharded.n_shards
        driver = ShardedLoopyBP(
            config,
            max_workers=workers if workers > 1 else None,
            policy=self.policy,
            staleness=self.staleness,
            steal_factor=self.steal_factor,
        )
        result, wall = self._timed(driver.run, sharded)

        gather_bytes = 4.0 * graph.n_states
        if result.policy == "async":
            modeled, barrier_idle = self._model_async(result, workers, gather_bytes)
        else:
            modeled, barrier_idle = self._model_sync(sharded, result, gather_bytes)

        get_metrics().histogram("sharded.barrier_idle_s").record(barrier_idle)
        return self._result_from_loopy(
            self.name,
            result,
            wall,
            modeled,
            schedule=config.schedule,
            partitioner=partition.method,
            n_shards=sharded.n_shards,
            cut_fraction=partition.cut_fraction,
            shard_balance=partition.balance,
            exchange_bytes=result.exchange_bytes,
            workers=workers,
            policy=result.policy,
            staleness=result.staleness,
            stolen_items=result.stolen_items,
            barrier_idle_s=barrier_idle,
        )

    # ------------------------------------------------------------------
    def _model_sync(self, sharded, result, gather_bytes):
        """Bulk-synchronous wall clock: per round, the straggler's sweep +
        shared-memory exchange + barrier.  Barrier idle is everyone else's
        wait for the straggler, summed over rounds."""
        profile = sharded.exchange_profile()
        exchange = profile["bytes_per_round"] / self.cpu.stream_bandwidth
        barrier = _BARRIER_SECONDS * max(
            1, int(math.ceil(math.log2(max(sharded.n_shards, 2))))
        )
        modeled = 0.0
        barrier_idle = 0.0
        for shard_stats in result.per_shard_stats:
            times = [
                cpu_sweep_time(self.cpu, s, gather_bytes=gather_bytes)
                for s in shard_stats
            ]
            slowest = max(times, default=0.0)
            modeled += slowest + exchange + barrier
            barrier_idle += sum(slowest - t for t in times)
        return modeled, barrier_idle

    def _model_async(self, result, workers, gather_bytes):
        """Stale-synchronous wall clock: no barrier.  Worker lanes drain
        the region queue back-to-back across ticks, so each lane's busy
        time just accumulates; the wall clock is the busiest lane unless
        the halo stream is the bottleneck.  With k=0 the exchange itself
        is a synchronization point, so ticks serialize on the straggler —
        but the pthread barrier is still gone."""
        lane_busy = [0.0] * max(workers, 1)
        serialized = 0.0
        for tick in result.ticks:
            times = [
                cpu_sweep_time(self.cpu, s, gather_bytes=gather_bytes)
                for s in tick.worker_stats
            ]
            for lane, t in enumerate(times):
                lane_busy[lane % len(lane_busy)] += t
            serialized += max(times, default=0.0)
        exchange = result.exchange_bytes / self.cpu.stream_bandwidth
        if result.staleness > 0:
            busiest = max(lane_busy, default=0.0)
            modeled = max(busiest, exchange)
            barrier_idle = sum(busiest - t for t in lane_busy)
        else:
            modeled = serialized + exchange
            barrier_idle = sum(
                serialized - busy for busy in lane_busy if busy < serialized
            )
        return modeled, barrier_idle
