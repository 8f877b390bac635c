"""Simulated distributed-memory (MPI-style) backend (paper §5.1).

The paper positions Credo against cluster BP implementations — Gonzalez
et al.'s MapReduce/pthreads+OpenMPI splash BP and Kang et al.'s HADI-style
MPI engine — noting that "due to network latencies from the frequent
message passing inherent to BP, their solution takes hours to process our
benchmark graphs" while Credo needs seconds.

This backend executes the same numerics and models a classic
bulk-synchronous distributed BP:

* the graph is partitioned over ``ranks`` workers by a *measured*
  :class:`~repro.partition.Partition` (default random hash — the
  paper's related work had to "reprocess the graph into a form amenable
  to this distributed environment"; pick ``partitioner="bfs"`` etc. to
  see what a smarter split buys);
* every iteration, each worker sweeps its local subgraph (CPU cost model
  over its share of the work) and then exchanges boundary messages: one
  latency-bound round plus bandwidth for ``cut × message`` bytes
  (mpi4py-style buffered sends);
* a collective all-reduce implements the convergence check
  (log₂(ranks) latency rounds).

The E14 benchmark uses it to regenerate the §5.1 comparison table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.backends.base import Backend, RunResult
from repro.backends.cpu_cost import CpuSpec, I7_7700HQ, cpu_sweep_time
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP
from repro.partition import Partition, make_partition

__all__ = [
    "ClusterSpec",
    "DistributedBackend",
    "ETHERNET_1G",
    "INFINIBAND",
    "MAPREDUCE",
]


@dataclass(frozen=True)
class ClusterSpec:
    """Interconnect and node parameters of the simulated cluster."""

    name: str
    ranks: int
    #: per-message one-way latency, seconds (the killer for BP, §5.1)
    latency: float
    #: interconnect bandwidth per link, bytes/second
    bandwidth: float
    #: fixed framework cost per superstep, seconds — MapReduce pays whole
    #: job launches per BP iteration, MPI pays barrier/bookkeeping only
    per_iteration_overhead: float = 0.0
    cpu: CpuSpec = I7_7700HQ

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("bad interconnect parameters")
        if self.per_iteration_overhead < 0:
            raise ValueError("per_iteration_overhead must be non-negative")


#: a 2011-era commodity MPI cluster (the Kang et al. setting)
ETHERNET_1G = ClusterSpec(
    "1GbE MPI cluster", ranks=40, latency=80e-6, bandwidth=125e6,
    per_iteration_overhead=5e-3,
)
#: a tuned HPC fabric (the Gonzalez et al. 40-server setting)
INFINIBAND = ClusterSpec(
    "InfiniBand cluster", ranks=40, latency=4e-6, bandwidth=3e9,
    per_iteration_overhead=0.5e-3,
)
#: Hadoop-era MapReduce: each BP superstep is a job submission
#: (scheduling, task placement, HDFS round trips) — the Gonzalez et al.
#: MapReduce splash-BP setting
MAPREDUCE = ClusterSpec(
    "MapReduce cluster", ranks=40, latency=500e-6, bandwidth=125e6,
    per_iteration_overhead=2.0,
)


class DistributedBackend(Backend):
    """Bulk-synchronous distributed loopy BP with modeled communication."""

    name = "distributed"
    platform = "cpu"
    paradigm = "node"

    def __init__(
        self,
        cluster: ClusterSpec = ETHERNET_1G,
        *,
        paradigm: str = "node",
        partitioner: str = "hash",
        messages_per_round: int | None = None,
        seed: int = 0,
    ):
        self.cluster = cluster
        self.paradigm = paradigm
        self.partitioner = partitioner
        self.messages_per_round = messages_per_round
        self.seed = seed

    def supports(self, graph: BeliefGraph) -> bool:
        return graph.uniform

    def _cut_fraction(self, partition: Partition | None = None) -> float:
        """Fraction of edges crossing partitions.

        With a measured :class:`~repro.partition.Partition` in hand this
        is its actual cut; the no-argument form keeps the analytic
        expectation for random hash partitioning, ``1 − 1/ranks`` —
        which is why the related work had to reprocess their graphs.
        """
        if partition is not None:
            return partition.cut_fraction
        return 1.0 - 1.0 / self.cluster.ranks

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
        loopy, wall = self._timed(LoopyBP(config).run, graph)

        cluster = self.cluster
        b = graph.n_states
        if partition is None and graph.n_nodes:
            partition = make_partition(
                graph,
                min(cluster.ranks, graph.n_nodes),
                self.partitioner,
                seed=self.seed,
            )
        cut = self._cut_fraction(partition)
        # stragglers put the barrier above the mean rank's sweep: use the
        # partition's measured edge-load imbalance, falling back to the
        # old ~1.3x degree-tail rule of thumb when nothing was measured
        straggler = max(partition.balance, 1.0) if partition is not None else 1.3
        gather_bytes = 4.0 * b
        modeled = 0.0
        for sweep in loopy.run_stats.per_iteration:
            # compute: the sweep's work splits across ranks up to the
            # straggler factor
            local = cpu_sweep_time(cluster.cpu, sweep, gather_bytes=gather_bytes)
            compute = straggler * local / cluster.ranks
            # communication: boundary messages this iteration
            boundary_msgs = sweep.edges_processed * cut
            msg_bytes = boundary_msgs * (b * 4 + 16)
            rounds = self.messages_per_round or max(
                1, int(boundary_msgs / max(cluster.ranks**2, 1))
            )
            comm = (
                rounds * cluster.latency
                + msg_bytes / (cluster.bandwidth * cluster.ranks)
            )
            # convergence all-reduce: log2(ranks) latency steps
            allreduce = math.ceil(math.log2(max(cluster.ranks, 2))) * cluster.latency
            modeled += max(compute, comm) + allreduce + cluster.per_iteration_overhead

        return self._result_from_loopy(
            self.name,
            loopy,
            wall,
            modeled,
            cluster=cluster.name,
            ranks=cluster.ranks,
            cut_fraction=cut,
            measured_partition=partition is not None,
            partitioner=partition.method if partition is not None else self.partitioner,
            shard_balance=partition.balance if partition is not None else None,
            schedule=config.schedule,
        )
