"""Shard-parallel CPU cost model over a measured partition (DESIGN.md §9).

Solves once with :class:`~repro.core.loopy.LoopyBP` and prices a
bulk-synchronous multi-core execution of the same run from the measured
:class:`~repro.partition.Partition`: each iteration's sweep work is split
across the shards by their share of the owned edges
(:func:`split_sweep`), the *slowest* shard sets the round time, and every
round adds the boundary exchange through shared memory plus a barrier.
The posteriors are the unsharded run's, bit for bit.

The time shards would spend waiting at the barrier for the straggler is
reported as ``barrier_idle_s`` in the result detail.
"""

from __future__ import annotations

import math
from dataclasses import fields

from repro.backends.base import Backend, RunResult
from repro.backends.cpu_cost import CpuSpec, I7_7700HQ, cpu_sweep_time
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP
from repro.core.sweepstats import SweepStats
from repro.partition import Partition, ShardProfile, make_partition

__all__ = ["ShardedCpuBackend", "split_sweep"]

#: modeled cost of one pthread-barrier round per participating shard level
_BARRIER_SECONDS = 2e-6

#: per-sweep counters that scale with a shard's share of the work; every
#: shard still launches the whole sweep's kernels
_SCALED = tuple(f.name for f in fields(SweepStats) if f.name != "kernel_launches")


def split_sweep(stats: SweepStats, profile: ShardProfile) -> list[SweepStats]:
    """One sweep's counts, divided across the populated shards of
    ``profile`` by :attr:`~repro.partition.ShardProfile.work_share`."""
    shards = []
    for share in profile.work_share:
        part = SweepStats(kernel_launches=stats.kernel_launches)
        for name in _SCALED:
            setattr(part, name, int(round(getattr(stats, name) * share)))
        shards.append(part)
    return shards


def _partition(graph: BeliefGraph, partition, n_shards, method, seed) -> Partition:
    if partition is not None:
        return partition
    return make_partition(graph, min(n_shards, max(graph.n_nodes, 1)), method, seed=seed)


class ShardedCpuBackend(Backend):
    """One unsharded solve, priced as partition → per-shard sweeps on one host."""

    name = "sharded"
    platform = "cpu"

    def __init__(
        self,
        *,
        n_shards: int = 4,
        partitioner: str = "bfs",
        paradigm: str = "node",
        cpu: CpuSpec = I7_7700HQ,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = n_shards
        self.partitioner = partitioner
        self.paradigm = paradigm
        self.cpu = cpu
        self.seed = seed

    def supports(self, graph: BeliefGraph) -> bool:
        return graph.uniform

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        update_rule: str = "sum_product",
        partition: Partition | None = None,
    ) -> RunResult:
        config = self._loopy_config(self.paradigm, criterion, schedule, update_rule)
        partition = _partition(graph, partition, self.n_shards, self.partitioner, self.seed)
        profile = partition.shard_profile(graph)
        result, wall = self._timed(LoopyBP(config).run, graph)

        bytes_per_round, _ = profile.exchange_bytes(graph.n_states)
        exchange = bytes_per_round / self.cpu.stream_bandwidth
        barrier = _BARRIER_SECONDS * max(
            1, int(math.ceil(math.log2(max(profile.n_shards, 2))))
        )
        gather_bytes = 4.0 * graph.n_states
        modeled = 0.0
        barrier_idle = 0.0
        for sweep in result.run_stats.per_iteration:
            times = [
                cpu_sweep_time(self.cpu, s, gather_bytes=gather_bytes)
                for s in split_sweep(sweep, profile)
            ]
            slowest = max(times, default=0.0)
            modeled += slowest + exchange + barrier
            barrier_idle += sum(slowest - t for t in times)

        return self._result_from_loopy(
            self.name,
            result,
            wall,
            modeled,
            schedule=config.schedule,
            partitioner=partition.method,
            n_shards=profile.n_shards,
            cut_fraction=partition.cut_fraction,
            shard_balance=partition.balance,
            exchange_bytes=bytes_per_round * result.iterations,
            barrier_idle_s=barrier_idle,
        )
