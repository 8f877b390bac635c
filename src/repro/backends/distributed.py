"""Simulated distributed-memory (MPI-style) backend (paper §5.1).

The paper positions Credo against cluster BP implementations — Gonzalez
et al.'s MapReduce/pthreads+OpenMPI splash BP and Kang et al.'s HADI-style
MPI engine — noting that "due to network latencies from the frequent
message passing inherent to BP, their solution takes hours to process our
benchmark graphs" while Credo needs seconds.

This backend executes the same numerics and models a classic
bulk-synchronous distributed BP:

* the graph is split over ``ranks`` workers by a structure-blind hash
  of node ids (the paper's related work had to "reprocess the graph into
  a form amenable to this distributed environment"), and the split's cut
  fraction and edge-load balance are *measured* on the graph;
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

import numpy as np

from repro.backends.base import Backend, RunResult
from repro.backends.cpu_cost import CpuSpec, I7_7700HQ, cpu_sweep_time
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP

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


def _hash_split(graph: BeliefGraph, ranks: int) -> tuple[float, float]:
    """``(cut fraction, edge-load balance)`` of ``graph`` hashed over
    ``min(ranks, n_nodes)`` workers.

    A Knuth multiplicative hash of the node ids assigns each node its
    worker.  The cut is the fraction of directed edges whose endpoints
    land on different workers.  The balance is the heaviest worker's
    in-edge load over the mean (≥ 1): the bulk-synchronous straggler
    factor, since the slowest worker sets each superstep's pace.
    """
    if graph.n_edges == 0:
        return 0.0, 1.0
    k = min(ranks, graph.n_nodes)
    mixed = np.arange(graph.n_nodes, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    owner = (mixed % np.uint64(k)).astype(np.int64)
    cut = int(np.count_nonzero(owner[graph.src] != owner[graph.dst])) / graph.n_edges
    load = np.bincount(owner[graph.dst], minlength=k)
    return cut, max(float(load.max()) / (graph.n_edges / k), 1.0)


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
        messages_per_round: int | None = None,
    ):
        self.cluster = cluster
        self.paradigm = paradigm
        self.messages_per_round = messages_per_round

    def supports(self, graph: BeliefGraph) -> bool:
        return graph.uniform

    def _cut_fraction(self) -> float:
        """The analytic cut of a random split, ``1 − 1/ranks``: nearly
        every message crosses the network, which is why the related work
        had to reprocess their graphs.  :meth:`run` measures the cut of
        its hash split on the graph instead."""
        return 1.0 - 1.0 / self.cluster.ranks

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        update_rule: str = "sum_product",
    ) -> RunResult:
        config = self._loopy_config(self.paradigm, criterion, schedule, update_rule)
        loopy, wall = self._timed(LoopyBP(config).run, graph)

        cluster = self.cluster
        b = graph.n_states
        # stragglers put the barrier above the mean rank's sweep
        cut, straggler = _hash_split(graph, cluster.ranks)
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
            shard_balance=straggler,
            schedule=config.schedule,
        )
