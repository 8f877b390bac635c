"""Multi-GPU backend: per-shard CUDA kernels + interconnect exchange.

The single-GPU backends (§3.6) hit the VRAM wall on the paper's TW/OR
graphs; the escape hatch is the same partition layer the CPU sharded
backend uses, with each shard resident on its own simulated device.
Rounds are bulk-synchronous: every device launches its shard's sweep
kernels (the straggler sets the round time — the measured balance of the
partition, not an assumption), then halo beliefs and ghost messages move
peer-to-peer over NVLink or PCIe (:mod:`repro.gpusim.multi`).

``supports`` admits graphs whose *sharded* footprint fits the device
fleet even when a single device cannot hold them — the capacity story
that motivates multi-GPU BP in the first place.
"""

from __future__ import annotations

from repro.backends.base import Backend, BackendUnsupportedError, RunResult
from repro.backends.cuda_backends import _graph_device_bytes
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.sharded import ShardedGraph, ShardedLoopyBP
from repro.gpusim.arch import DeviceSpec, get_device
from repro.gpusim.device import GpuOutOfMemoryError
from repro.gpusim.multi import InterconnectSpec, MultiGpuDevice, get_interconnect
from repro.gpusim.transfer import DEFAULT_CONVERGENCE_BATCH
from repro.partition import Partition, make_partition
from repro.telemetry import get_metrics

__all__ = ["MultiGpuBackend"]

_FSIZE = 4


class MultiGpuBackend(Backend):
    """Sharded BP across ``n_devices`` simulated GPUs ("cuda-multi")."""

    name = "cuda-multi"
    platform = "gpu"

    def __init__(
        self,
        device: DeviceSpec | str = "gtx1070",
        *,
        n_devices: int = 2,
        interconnect: InterconnectSpec | str = "nvlink",
        partitioner: str = "bfs",
        paradigm: str = "node",
        threads_per_block: int = 1024,
        convergence_batch: int = DEFAULT_CONVERGENCE_BATCH,
        seed: int = 0,
        policy: str = "sync",
        staleness: int = 0,
        steal_factor: int = 8,
    ):
        if n_devices < 1:
            raise ValueError("n_devices must be at least 1")
        self.device_spec = get_device(device)
        self.n_devices = n_devices
        self.interconnect = get_interconnect(interconnect)
        self.partitioner = partitioner
        self.paradigm = paradigm
        self.threads_per_block = threads_per_block
        self.convergence_batch = max(1, convergence_batch)
        self.seed = seed
        self.policy = policy
        self.staleness = staleness
        self.steal_factor = steal_factor

    def supports(self, graph: BeliefGraph) -> bool:
        if not graph.uniform:
            return False
        # each shard holds ~1/n of the graph plus its halo; admit when the
        # fleet-wide capacity covers the worst-case (priority) footprint
        # with headroom for boundary duplication
        total = sum(_graph_device_bytes(graph, schedule="residual").values())
        return total * 1.25 <= self.n_devices * self.device_spec.vram_bytes

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
                graph, min(self.n_devices, max(graph.n_nodes, 1)),
                self.partitioner, seed=self.seed,
            )
        sharded = ShardedGraph.build(graph, partition)
        fleet = MultiGpuDevice(
            self.device_spec,
            n_devices=sharded.n_shards,
            interconnect=self.interconnect,
        )

        shard_buffers = [
            _graph_device_bytes(sh.graph, config.schedule) for sh in sharded.shards
        ]

        def alloc_all(device, buffers):
            for name, nbytes in buffers.items():
                device.alloc(name, nbytes)
            if graph.potentials.shared:
                # the shared matrix is replicated into every device's
                # constant cache when it fits (§3.6)
                pot = graph.potentials.nbytes()
                if pot <= self.device_spec.constant_mem_bytes:
                    device.alloc("potentials", pot, space="constant")
                else:
                    device.alloc("potentials", pot)

        try:
            fleet.lockstep(
                [lambda d, b=b: alloc_all(d, b) for b in shard_buffers]
            )
        except GpuOutOfMemoryError as exc:
            raise BackendUnsupportedError(
                f"{self.name}: a shard does not fit in "
                f"{self.device_spec.name} VRAM at {sharded.n_shards} devices"
            ) from exc

        # bulk per-device upload of the resident shard (§3.6 lifecycle)
        fleet.lockstep(
            [
                lambda d, b=b: d.h2d(
                    sum(b.values()) + graph.potentials.nbytes(), calls=len(b) + 1
                )
                for b in shard_buffers
            ]
        )

        driver = ShardedLoopyBP(
            config,
            policy=self.policy,
            staleness=self.staleness,
            steal_factor=self.steal_factor,
        )
        result, wall = self._timed(driver.run, sharded)

        profile = sharded.exchange_profile()
        belief_bytes = 4.0 * graph.n_states
        barrier_idle = 0.0
        base = [d.elapsed for d in fleet.devices]
        if result.policy == "async" and result.staleness > 0:
            # stale-synchronous replay: no per-round barrier, no periodic
            # lockstep d2h convergence poll (each device decides from its
            # resident deltas); halo publishes occupy the link while the
            # other devices keep computing
            fleet.begin_async()
            for shard_stats, tick in zip(result.per_shard_stats, result.ticks):
                fleet.async_launch(
                    [
                        s if i in tick.swept else None
                        for i, s in enumerate(shard_stats)
                    ],
                    threads_per_block=self.threads_per_block,
                    random_access_bytes=belief_bytes,
                )
                if sharded.n_shards > 1 and tick.exchange_bytes > 0:
                    fleet.async_exchange(tick.exchange_bytes)
            fleet.finish_async()
            # residual idle is only the end-of-run imbalance between
            # device clocks — not a per-round wait
            busy = [d.elapsed - b for d, b in zip(fleet.devices, base)]
            barrier_idle = sum(max(busy, default=0.0) - t for t in busy)
        else:
            for i, shard_stats in enumerate(result.per_shard_stats, start=1):
                before = [d.elapsed for d in fleet.devices]
                dt = fleet.launch_round(
                    shard_stats,
                    threads_per_block=self.threads_per_block,
                    random_access_bytes=belief_bytes,
                )
                barrier_idle += sum(
                    dt - (d.elapsed - b)
                    for d, b in zip(fleet.devices, before)
                )
                if sharded.n_shards > 1 and profile["bytes_per_round"] > 0:
                    fleet.exchange(
                        profile["bytes_per_round"], profile["max_device_bytes"]
                    )
                if i % self.convergence_batch == 0:
                    fleet.lockstep([lambda d: d.d2h(_FSIZE)] * sharded.n_shards)
        # final posterior read-back: each device ships its owned rows
        fleet.lockstep(
            [
                lambda d, sh=sh: d.d2h(sh.n_owned * graph.n_states * _FSIZE)
                for sh in sharded.shards
            ]
        )

        get_metrics().histogram("sharded.barrier_idle_s").record(barrier_idle)
        return self._result_from_loopy(
            self.name,
            result,
            wall,
            fleet.elapsed,
            device=self.device_spec.name,
            n_devices=sharded.n_shards,
            interconnect=fleet.interconnect.name,
            schedule=config.schedule,
            partitioner=partition.method,
            cut_fraction=partition.cut_fraction,
            shard_balance=partition.balance,
            exchange_bytes=fleet.exchange_bytes,
            exchange_fraction=fleet.exchange_fraction,
            policy=result.policy,
            staleness=result.staleness,
            stolen_items=result.stolen_items,
            barrier_idle_s=barrier_idle,
        )
