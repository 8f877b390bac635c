"""Kernel execution cost model (paper §2.3, §3.6).

A kernel sweep is characterized by the operation counts the BP kernels
emit (:class:`~repro.core.sweepstats.SweepStats`).  Its modeled runtime is
the classic roofline decomposition:

    t = launch + max(t_compute, t_memory) + t_atomics + t_reduction

* compute: flops against the device's single-precision peak, derated for
  warp divergence on irregular work;
* memory: sequential traffic at full bandwidth plus sector-granular
  gathers (:func:`repro.gpusim.memory.random_time`) plus a latency floor
  when the grid is too small to hide memory latency — the reason "the
  various overheads involved with GPGPU execution … prohibit the CUDA
  implementations' performance" below 100 k nodes (§4.1.1);
* atomics: the §3.3 contention model;
* reduction: the convergence sum, performed in shared memory per block
  (§3.6) and therefore cheap but not free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sweepstats import SweepStats
from repro.gpusim.arch import DeviceSpec
from repro.gpusim.atomics import atomic_cost
from repro.gpusim.memory import random_time, sequential_time

__all__ = ["KernelCost", "launch_cost"]

#: fraction of peak flops irregular graph kernels sustain (divergence,
#: non-FMA ops); order-of-magnitude from graph-processing literature
_COMPUTE_EFFICIENCY = 0.25
#: shared-memory reduction cost per element folded, cycles
_REDUCTION_CYCLES_PER_ELEM = 1.5
#: per-thread state budget (bytes) sustaining full occupancy; beyond it,
#: register pressure/local spills cut resident warps proportionally
_FULL_OCCUPANCY_STATE_BYTES = 192.0
#: cycles per scheduler queue operation (clear/index write/pointer bump);
#: distinct from atomic_ops, which the contention model prices
_QUEUE_CYCLES_PER_OP = 4.0


@dataclass(frozen=True)
class KernelCost:
    """Breakdown of one sweep's modeled time (seconds)."""

    launch: float
    compute: float
    memory: float
    atomics: float
    reduction: float
    queue: float = 0.0

    @property
    def total(self) -> float:
        """Roofline total: launch + max(compute, memory) + atomics +
        reduction + queue maintenance."""
        return (
            self.launch
            + max(self.compute, self.memory)
            + self.atomics
            + self.reduction
            + self.queue
        )


def launch_cost(
    device: DeviceSpec,
    stats: SweepStats,
    *,
    threads_per_block: int = 1024,
    random_access_bytes: float | None = None,
) -> KernelCost:
    """Model the time of one sweep's kernels on ``device``.

    ``random_access_bytes`` is the typical size of one gather (a belief
    vector); when omitted it is inferred from the stats' random traffic.
    """
    n_items = max(stats.nodes_processed, stats.edges_processed)
    # launches are those of the modeled CUDA kernels, whichever host
    # executor produced the counts, so modeled time never depends on it
    launches = max(stats.kernel_launches, 1)
    launch = launches * device.kernel_launch_seconds

    if random_access_bytes is None or random_access_bytes <= 0:
        random_access_bytes = 32.0

    # Occupancy: wide belief vectors inflate per-thread state (registers +
    # local arrays), shrinking resident warps and exposing latency — the
    # mechanism that erodes the Node paradigm's advantage past a few
    # beliefs (§4.1.1, Fig. 8).
    thread_state_bytes = 3.0 * random_access_bytes  # cavity + message + accum
    occupancy = min(1.0, _FULL_OCCUPANCY_STATE_BYTES / max(thread_state_bytes, 1.0))
    occupancy = max(occupancy, 0.25)

    compute = stats.flops / (device.peak_flops * _COMPUTE_EFFICIENCY * occupancy)

    n_gathers = stats.random_accesses
    if n_gathers == 0 and stats.random_bytes:
        n_gathers = int(stats.random_bytes / random_access_bytes)
    memory = (
        sequential_time(device, stats.sequential_bytes)
        + random_time(device, n_gathers, random_access_bytes)
    ) / occupancy
    # Latency floor: with too few warps in flight, loads cannot be hidden.
    warps = max(1, (n_items + device.warp_size - 1) // device.warp_size)
    max_resident_warps = device.sm_count * 64 * occupancy
    if warps < max_resident_warps and n_items:
        exposed = device.global_latency_cycles * (1.0 - warps / max_resident_warps)
        memory += device.cycles_to_seconds(exposed * launches)

    # Atomic targets: the touched destination nodes (each edge's combine
    # lands on its destination's accumulator line).
    n_targets = max(1, stats.nodes_processed)
    atomics = atomic_cost(device, stats.atomic_ops, n_targets)

    reduction = device.cycles_to_seconds(
        stats.reduction_elems * _REDUCTION_CYCLES_PER_ELEM / device.sm_count
    )

    # Scheduler queue maintenance (§3.5 and the residual/relaxed
    # extensions): non-atomic index writes and pointer bumps, spread
    # across the SMs.  Heap-order contention shows up in atomic_ops.
    queue = device.cycles_to_seconds(
        stats.queue_ops * _QUEUE_CYCLES_PER_OP / device.sm_count
    )
    return KernelCost(
        launch=launch,
        compute=compute,
        memory=memory,
        atomics=atomics,
        reduction=reduction,
        queue=queue,
    )
