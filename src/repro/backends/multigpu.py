"""Multi-GPU backend: per-shard CUDA kernels + interconnect exchange.

The single-GPU backends (§3.6) hit the VRAM wall on the paper's TW/OR
graphs; the escape hatch is the same partition layer the CPU sharded
backend uses, with each shard resident on its own simulated device.
Like ``sharded`` and ``distributed``, it solves once with
:class:`~repro.core.loopy.LoopyBP` and prices the shards from the
measured :class:`~repro.partition.Partition`: every device allocates its
shard's local rows (owned plus halo nodes, owned plus ghost edges),
launches its share of each sweep in lockstep rounds (the straggler sets
the round time — the measured balance of the partition, not an
assumption), then halo beliefs and ghost messages move peer-to-peer over
NVLink or PCIe (:mod:`repro.gpusim.multi`).

``supports`` admits graphs whose *sharded* footprint fits the device
fleet even when a single device cannot hold them — the capacity story
that motivates multi-GPU BP in the first place.
"""

from __future__ import annotations

from repro.backends.base import Backend, BackendUnsupportedError, RunResult
from repro.backends.cuda_backends import _edge_potential_bytes, _graph_device_bytes
from repro.backends.sharded import _partition, split_sweep
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP
from repro.gpusim.arch import DeviceSpec, get_device
from repro.gpusim.device import GpuOutOfMemoryError
from repro.gpusim.multi import InterconnectSpec, MultiGpuDevice, get_interconnect
from repro.gpusim.transfer import DEFAULT_CONVERGENCE_BATCH
from repro.partition import Partition

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

    def supports(self, graph: BeliefGraph) -> bool:
        if not graph.uniform:
            return False
        # each shard holds ~1/n of the graph plus its halo; admit when the
        # fleet-wide capacity covers the worst-case (priority) footprint
        # with headroom for boundary duplication
        total = sum(_graph_device_bytes(
            graph.n_nodes, graph.n_edges, graph.n_states, "residual",
            _edge_potential_bytes(graph),
        ).values())
        return total * 1.25 <= self.n_devices * self.device_spec.vram_bytes

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
        partition = _partition(graph, partition, self.n_devices, self.partitioner, self.seed)
        profile = partition.shard_profile(graph)
        fleet = MultiGpuDevice(
            self.device_spec,
            n_devices=profile.n_shards,
            interconnect=self.interconnect,
        )

        # per-edge potential stacks are uniform: a shard holds its share
        stacks = _edge_potential_bytes(graph)
        shard_buffers = [
            _graph_device_bytes(
                int(n), int(m), graph.n_states, config.schedule,
                None if stacks is None else stacks * int(m) // max(graph.n_edges, 1),
            )
            for n, m in zip(profile.local_nodes, profile.local_edges)
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
                f"{self.device_spec.name} VRAM at {profile.n_shards} devices"
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

        result, wall = self._timed(LoopyBP(config).run, graph)

        bytes_per_round, max_device_bytes = profile.exchange_bytes(graph.n_states)
        belief_bytes = 4.0 * graph.n_states
        barrier_idle = 0.0
        for i, sweep in enumerate(result.run_stats.per_iteration, start=1):
            before = [d.elapsed for d in fleet.devices]
            dt = fleet.launch_round(
                split_sweep(sweep, profile),
                threads_per_block=self.threads_per_block,
                random_access_bytes=belief_bytes,
            )
            barrier_idle += sum(
                dt - (d.elapsed - b)
                for d, b in zip(fleet.devices, before)
            )
            if profile.n_shards > 1 and bytes_per_round > 0:
                fleet.exchange(bytes_per_round, max_device_bytes)
            if i % self.convergence_batch == 0:
                fleet.lockstep([lambda d: d.d2h(_FSIZE)] * profile.n_shards)
        # final posterior read-back: each device ships its owned rows
        fleet.lockstep(
            [
                lambda d, n=int(n): d.d2h(n * graph.n_states * _FSIZE)
                for n in profile.owned_nodes
            ]
        )

        return self._result_from_loopy(
            self.name,
            result,
            wall,
            fleet.elapsed,
            device=self.device_spec.name,
            n_devices=profile.n_shards,
            interconnect=fleet.interconnect.name,
            schedule=config.schedule,
            partitioner=partition.method,
            cut_fraction=partition.cut_fraction,
            shard_balance=partition.balance,
            exchange_bytes=fleet.exchange_bytes,
            exchange_fraction=fleet.exchange_fraction,
            barrier_idle_s=barrier_idle,
        )
