"""Single-threaded CPU cost model (the paper's "C" implementations).

The evaluation machine is "an Intel Core i7-7700HQ with 4 physical and 4
logical cores" (§4).  The model is the CPU analogue of the GPU roofline:
scalar/SIMD compute at a derated peak, streaming traffic at the effective
single-core bandwidth, and data-dependent gathers paying a cache-miss
latency each (partially overlapped by out-of-order execution).  The §3.4
layout experiment plugs in here too: :func:`cache_lines_per_access`
prices a belief layout's lines per gather, which scales the gather cost —
the AoS design's ~56 % fewer cache accesses shows up as proportionally
fewer misses.  Layout exists only here: beliefs are always stored as one
dense float32 array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sweepstats import SweepStats

__all__ = [
    "CpuSpec",
    "I7_7700HQ",
    "XEON_E5_2686",
    "cache_lines_per_access",
    "cpu_sweep_time",
]

#: Cache-line size assumed by the access-pattern model (bytes).
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class CpuSpec:
    """One CPU core's cost-model parameters."""

    name: str
    clock_ghz: float
    #: sustained single-core flops per cycle (SSE/AVX, derated)
    flops_per_cycle: float
    #: effective single-core streaming bandwidth, bytes/second
    stream_bandwidth: float
    #: average cost of one data-dependent cache miss, seconds
    miss_latency: float
    #: fraction of gathers that actually miss (OoO + prefetch hide some)
    miss_rate: float
    cache_line: int = 64
    physical_cores: int = 4
    logical_cores: int = 8

    @property
    def peak_flops(self) -> float:
        return self.clock_ghz * 1e9 * self.flops_per_cycle


#: The paper's evaluation CPU (§4).
I7_7700HQ = CpuSpec(
    name="i7-7700HQ",
    clock_ghz=2.8,
    flops_per_cycle=8.0,
    stream_bandwidth=12e9,
    miss_latency=80e-9,
    miss_rate=0.35,
    physical_cores=4,
    logical_cores=8,
)

#: The p3.2xlarge host CPU (§4.4).
XEON_E5_2686 = CpuSpec(
    name="Xeon E5-2686 v4",
    clock_ghz=2.3,
    flops_per_cycle=8.0,
    stream_bandwidth=11e9,
    miss_latency=90e-9,
    miss_rate=0.35,
    physical_cores=8,
    logical_cores=16,
)


def cache_lines_per_access(layout: str, width: int) -> float:
    """Distinct cache lines touched reading one node's ``width``-state
    float32 belief vector *and* its state count (§3.4).

    This is the quantity behind the paper's cachegrind observation.
    ``"aos"`` (the adopted design) packs the vector and a 4-byte count in
    one record: one contiguous line stream.  ``"soa"`` keeps them in
    parallel arrays beside an offset array, so one logical access touches
    the probability segment plus fractions of two index lines.
    """
    width = max(width, 1)
    if layout == "aos":
        return max(1.0, (width * 4 + 4) / CACHE_LINE_BYTES)
    if layout == "soa":
        return 1.3 + max(1.0, (width * 4) / CACHE_LINE_BYTES)
    raise ValueError(f"unknown belief layout {layout!r} (expected 'aos' or 'soa')")


@dataclass(frozen=True)
class CpuSweepCost:
    """Component breakdown of one sweep's modeled single-thread time."""

    compute: float
    stream: float
    gather: float
    queue: float

    @property
    def total(self) -> float:
        return max(self.compute, self.stream) + self.gather + self.queue

    @property
    def memory_bound(self) -> float:
        """The portion limited by the memory system (does not scale with
        extra threads — the §2.4 mechanism)."""
        return self.stream + self.gather

    @property
    def cpu_bound(self) -> float:
        """The portion that scales with added cores."""
        return self.compute + self.queue


def cpu_sweep_cost(
    spec: CpuSpec,
    stats: SweepStats,
    *,
    gather_bytes: float = 32.0,
    cache_lines_per_access: float = 1.0,
    queue_op_seconds: float = 12e-9,
) -> CpuSweepCost:
    """Component costs of one sweep on a single core.

    ``cache_lines_per_access`` comes from :func:`cache_lines_per_access`
    for a belief layout (§3.4): SoA touches more distinct lines per
    logical access than AoS, raising the effective miss count.
    """
    compute = stats.flops / spec.peak_flops
    stream = stats.sequential_bytes / spec.stream_bandwidth
    n_gathers = stats.random_accesses
    if n_gathers == 0 and stats.random_bytes:
        n_gathers = int(stats.random_bytes / max(gather_bytes, 1.0))
    misses = n_gathers * spec.miss_rate * cache_lines_per_access
    gather = misses * spec.miss_latency
    # single thread: atomics are plain RMWs, folded into compute already
    queue = stats.queue_ops * queue_op_seconds
    return CpuSweepCost(compute=compute, stream=stream, gather=gather, queue=queue)


def cpu_sweep_time(
    spec: CpuSpec,
    stats: SweepStats,
    *,
    gather_bytes: float = 32.0,
    cache_lines_per_access: float = 1.0,
    queue_op_seconds: float = 12e-9,
) -> float:
    """Modeled single-thread seconds for one sweep."""
    return cpu_sweep_cost(
        spec,
        stats,
        gather_bytes=gather_bytes,
        cache_lines_per_access=cache_lines_per_access,
        queue_op_seconds=queue_op_seconds,
    ).total
