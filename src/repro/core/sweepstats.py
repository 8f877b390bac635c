"""Operation accounting emitted by the BP kernels.

Every sweep (one pass over the active nodes or edges) reports what it did
in hardware-neutral units: floating-point operations, bytes moved
sequentially vs via random access, and atomic operations.  The backends
turn these counts into modeled runtimes — the CPU cache model for the "C"
and OpenMP engines, the GPU simulator for CUDA and OpenACC (paper §3.3
discusses exactly this trade: "extra atomic operations versus memory
lookups").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SweepStats"]


@dataclass
class SweepStats:
    """Counts from one kernel sweep (all additive)."""

    #: nodes whose beliefs were recomputed
    nodes_processed: int = 0
    #: directed edges whose messages were recomputed
    edges_processed: int = 0
    #: floating point operations (multiply-adds count as two)
    flops: int = 0
    #: bytes read/written with streaming (unit-stride) access
    sequential_bytes: int = 0
    #: bytes read via data-dependent (gather) access — the per-node
    #: paradigm's "many more memory lookups ... in random order" (§3.3)
    random_bytes: int = 0
    #: number of data-dependent gather *accesses* (each touching
    #: ``random_bytes / random_accesses`` bytes); the cache/coalescing
    #: models work per access, not per byte
    random_accesses: int = 0
    #: atomic transactions — the per-edge paradigm's combine step (one
    #: line-coalesced transaction per edge under the warp-per-edge
    #: mapping) plus work-queue pushes (§3.3, §3.5)
    atomic_ops: int = 0
    #: work-queue maintenance operations (clear + push), §3.5
    queue_ops: int = 0
    #: reduction elements folded by the convergence check (Alg. 1 line 12)
    reduction_elems: int = 0
    #: number of distinct kernel launches this sweep maps onto (GPU model)
    kernel_launches: int = 0

    def __iadd__(self, other: "SweepStats") -> "SweepStats":
        self.nodes_processed += other.nodes_processed
        self.edges_processed += other.edges_processed
        self.flops += other.flops
        self.sequential_bytes += other.sequential_bytes
        self.random_bytes += other.random_bytes
        self.random_accesses += other.random_accesses
        self.atomic_ops += other.atomic_ops
        self.queue_ops += other.queue_ops
        self.reduction_elems += other.reduction_elems
        self.kernel_launches += other.kernel_launches
        return self

    def __add__(self, other: "SweepStats") -> "SweepStats":
        result = SweepStats()
        result += self
        result += other
        return result

    @property
    def total_bytes(self) -> int:
        return self.sequential_bytes + self.random_bytes

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of every counter — the span-attribute payload
        telemetry attaches to per-sweep spans (DESIGN.md §11)."""
        return {
            "nodes_processed": self.nodes_processed,
            "edges_processed": self.edges_processed,
            "flops": self.flops,
            "sequential_bytes": self.sequential_bytes,
            "random_bytes": self.random_bytes,
            "random_accesses": self.random_accesses,
            "atomic_ops": self.atomic_ops,
            "queue_ops": self.queue_ops,
            "reduction_elems": self.reduction_elems,
            "kernel_launches": self.kernel_launches,
        }


@dataclass
class RunStats:
    """Aggregated counts over a whole BP run, by iteration."""

    per_iteration: list[SweepStats] = field(default_factory=list)

    def append(self, stats: SweepStats) -> None:
        self.per_iteration.append(stats)

    @property
    def total(self) -> SweepStats:
        agg = SweepStats()
        for s in self.per_iteration:
            agg += s
        return agg

    @property
    def iterations(self) -> int:
        return len(self.per_iteration)
