"""Analytic paper-scale time estimation.

The measured benchmarks execute scaled-down graphs (one CPU core cannot
run the 265-million-edge Twitter graph 132 times).  For the experiments
that need *paper-scale* relative performance — the classifier dataset
(§4.3), Figure 11's Credo-vs-C-Edge curves and the §4.4 portability study
— this module synthesizes each backend's modeled runtime analytically:

1. per-sweep operation counts from the same formulas the kernels emit
   (cross-checked against real runs in the test suite);
2. iteration counts and work-queue activity factors calibrated from the
   measured runs (the edge paradigm converges in fewer iterations; the
   queue shrinks the active set geometrically, §3.5/§4.2);
3. the identical CPU cost model and GPU device simulation used by the
   executing backends (context init, allocations, transfers, kernels).

Because every quantity is a deterministic function of (nodes, edges,
beliefs, mean degree), the estimator works directly on the Table 1 sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.cpu_cost import (
    CpuSpec,
    I7_7700HQ,
    cache_lines_per_access,
    cpu_sweep_time,
)
from repro.core.edge_kernel import chunk_slices
from repro.core.sweepstats import SweepStats
from repro.graphs.suite import BenchmarkGraph
from repro.gpusim.arch import DeviceSpec, get_device
from repro.gpusim.device import GpuDevice
from repro.gpusim.transfer import DEFAULT_CONVERGENCE_BATCH

__all__ = [
    "IterationModel",
    "probe_iteration_model",
    "full_sweep_stats",
    "estimate_backend_times",
    "estimate_cuda_breakdown",
]

_FSIZE = 4
_ISIZE = 8


@dataclass(frozen=True)
class IterationModel:
    """Convergence behaviour of one graph/use-case combination.

    ``iterations``: sweeps until the global criterion passes at the probe
    scale (§4.2: edge converges "in only a few iterations", node runs
    "for tens").  ``queue_activity``: with work queues on, the equivalent
    number of *full* sweeps actually processed.

    The global criterion **sums** per-node deltas (Alg. 1 line 12), so
    without the work queue the iteration count grows with the node count:
    per-node deltas decay geometrically at ``decay`` per iteration, and
    the sum crosses the fixed threshold ~``log(n/probe_n)/log(1/decay)``
    iterations later on an ``n``-node graph.  With the queue, elements
    drop out at a *per-element* threshold — scale-free — which is exactly
    why the paper's Fig. 9 queue gains reach ~87x on large graphs while
    small graphs barely notice.

    Defaults are calibration averages from the executed suite; per-graph
    values come from :func:`probe_iteration_model`.
    """

    node_iterations: int = 22
    edge_iterations: int = 12
    node_queue_activity: float = 7.0
    edge_queue_activity: float = 5.5
    #: per-iteration decay rate of the global delta sum (probe-fitted)
    node_decay: float = 0.7
    edge_decay: float = 0.55
    #: node count the probe ran at (anchors the scale extrapolation)
    probe_n: int = 5000

    def iterations_at_scale(
        self, n: int, paradigm: str, *, work_queue: bool, cap: int = 200
    ) -> float:
        """Iterations an ``n``-node graph needs under the sum criterion."""
        import math

        base = self.node_iterations if paradigm == "node" else self.edge_iterations
        if work_queue or n <= self.probe_n:
            return float(min(base, cap))
        decay = self.node_decay if paradigm == "node" else self.edge_decay
        decay = min(max(decay, 1e-6), 0.999)
        extra = math.log(n / self.probe_n) / math.log(1.0 / decay)
        return float(min(base + max(extra, 0.0), cap))


def probe_iteration_model(graph, criterion=None) -> IterationModel:
    """Measure a graph's convergence behaviour with a cheap probe run.

    Iteration counts and queue-activity factors are largely
    scale-invariant (they depend on coupling strength and degree shape,
    not raw size), so probing a scaled-down build of a Table 1 graph
    yields the constants for the paper-scale estimate.  The probe caps at
    50 iterations: a run still moving by then is cap-bound on every
    backend alike, so the relative ordering is already decided.
    """
    from repro.core.convergence import ConvergenceCriterion
    from repro.core.loopy import LoopyBP

    criterion = criterion or ConvergenceCriterion(max_iterations=50)
    node = LoopyBP(paradigm="node", criterion=criterion).run(graph.copy())
    edge = LoopyBP(paradigm="edge", criterion=criterion).run(graph.copy())
    n = max(graph.n_nodes, 1)
    m = max(graph.n_edges, 1)
    return IterationModel(
        node_iterations=max(node.iterations, 1),
        edge_iterations=max(edge.iterations, 1),
        node_queue_activity=max(node.run_stats.total.nodes_processed / n, 0.5),
        edge_queue_activity=max(edge.run_stats.total.edges_processed / m, 0.5),
        node_decay=_fit_decay(node.delta_history),
        edge_decay=_fit_decay(edge.delta_history),
        probe_n=n,
    )


def _fit_decay(history: list[float]) -> float:
    """Geometric decay rate of the global delta sum, fit on the early
    iterations (while the queue is still near-full the queued history
    matches the full-sweep history)."""
    window = [d for d in history[1:9] if d > 0]
    if len(window) < 2:
        return 0.7
    rate = (window[-1] / window[0]) ** (1.0 / (len(window) - 1))
    return float(min(max(rate, 0.05), 0.98))


def full_sweep_stats(n: int, m_directed: int, b: int, paradigm: str) -> SweepStats:
    """One full sweep's operation counts — the same accounting the
    kernels report (see node_kernel.py / edge_kernel.py)."""
    if paradigm == "node":
        return SweepStats(
            nodes_processed=n,
            edges_processed=m_directed,
            flops=m_directed * (2 * b * b + 2 * b) + n * 4 * b,
            sequential_bytes=n * 3 * b * _FSIZE + m_directed * b * _FSIZE,
            random_bytes=m_directed * 2 * b * _FSIZE,
            random_accesses=m_directed * 2,
            atomic_ops=0,
            reduction_elems=n,
            kernel_launches=1,
        )
    if paradigm == "edge":
        return SweepStats(
            nodes_processed=n,
            edges_processed=m_directed,
            flops=m_directed * (2 * b * b + 2 * b) + n * 4 * b,
            sequential_bytes=m_directed * (2 * b * _FSIZE + 2 * _ISIZE),
            random_bytes=m_directed * b * _FSIZE,
            random_accesses=m_directed,
            atomic_ops=m_directed,
            reduction_elems=n,
            # each chunk launches a message and a combine kernel
            kernel_launches=2 * len(chunk_slices(m_directed, 8)),
        )
    raise ValueError(f"unknown paradigm {paradigm!r}")


#: device indices are int32 — a production CUDA BP for < 2^31 nodes packs
#: its adjacency that way, and it is what lets the paper run K21/LJ/PO on
#: an 8 GB card
_DIDX = 4


def _device_buffer_bytes(n: int, m_directed: int, b: int) -> dict[str, int]:
    """The lean device allocation inventory of a production CUDA BP."""
    return {
        "beliefs": n * b * _FSIZE,
        "beliefs_prev": n * b * _FSIZE,
        "priors": n * b * _FSIZE,
        "messages": m_directed * b * _FSIZE,
        "log_msg_sum": n * b * _FSIZE,
        "edge_src": m_directed * _DIDX,
        "edge_dst": m_directed * _DIDX,
        "edge_rev": m_directed * _DIDX,
        "csr_in": (n + 1) * _DIDX + m_directed * _DIDX,
        "delta_scratch": max(n, m_directed) * _FSIZE,
        "queue": max(n, m_directed) * _DIDX,
    }


def _resolve_schedule(schedule: str | None, work_queue: bool) -> str:
    if schedule is not None:
        from repro.core.scheduler import normalize_schedule

        return normalize_schedule(schedule)
    return "work_queue" if work_queue else "sync"


def _activity(
    model: IterationModel, n: int, paradigm: str, schedule: str
) -> tuple[float, int]:
    """(equivalent full sweeps, iteration count) at scale ``n``.  The
    frontier schedules sweep the same elements, so they share the work
    queue's activity and differ only in queue bookkeeping."""
    queued = schedule != "sync"
    iterations = model.iterations_at_scale(n, paradigm, work_queue=queued)
    if queued:
        activity = (
            model.node_queue_activity if paradigm == "node"
            else model.edge_queue_activity
        )
    else:
        activity = iterations
    return float(activity), int(round(iterations))


def _estimate_cpu(
    n: int, m_directed: int, b: int, paradigm: str,
    cpu: CpuSpec, model: IterationModel, schedule: str,
) -> float:
    sweep = full_sweep_stats(n, m_directed, b, paradigm)
    activity, _ = _activity(model, n, paradigm, schedule)
    return activity * cpu_sweep_time(
        cpu, sweep, gather_bytes=4.0 * b,
        cache_lines_per_access=cache_lines_per_access("aos", b),
    )


def _estimate_cuda(
    n: int, m_directed: int, b: int, paradigm: str,
    device: DeviceSpec, model: IterationModel, schedule: str,
) -> GpuDevice | None:
    """Simulated device after a full run, or None when over VRAM."""
    buffers = _device_buffer_bytes(n, m_directed, b)
    gpu = GpuDevice(device)
    if sum(buffers.values()) > device.vram_bytes:
        return None
    for name, nbytes in buffers.items():
        gpu.alloc(name, nbytes)
    pot_bytes = b * b * _FSIZE
    if pot_bytes <= device.constant_mem_bytes:
        gpu.alloc("potentials", pot_bytes, space="constant")
    else:
        gpu.alloc("potentials", pot_bytes)
    gpu.h2d(sum(buffers.values()) + pot_bytes, calls=len(buffers) + 1)

    activity, iterations = _activity(model, n, paradigm, schedule)
    sweep = full_sweep_stats(n, m_directed, b, paradigm)
    scale = activity / max(iterations, 1)
    n_elements = n if paradigm == "node" else m_directed
    # scheduler bookkeeping per iteration (mirrors Schedule.charge)
    pushes = int(n_elements * scale)
    if schedule == "sync":
        queue_ops = push_atomics = 0
    elif schedule == "residual":
        import math

        queue_ops = 2 * pushes
        push_atomics = pushes * max(1, math.ceil(math.log2(max(n_elements, 2))))
    else:  # work_queue / relaxed: O(1) per push
        queue_ops = 2 * pushes
        push_atomics = pushes
    for i in range(1, iterations + 1):
        scaled = SweepStats(
            nodes_processed=int(sweep.nodes_processed * scale),
            edges_processed=int(sweep.edges_processed * scale),
            flops=int(sweep.flops * scale),
            sequential_bytes=int(sweep.sequential_bytes * scale),
            random_bytes=int(sweep.random_bytes * scale),
            random_accesses=int(sweep.random_accesses * scale),
            atomic_ops=int(sweep.atomic_ops * scale) + push_atomics,
            queue_ops=queue_ops,
            reduction_elems=int(sweep.reduction_elems * scale),
            kernel_launches=sweep.kernel_launches,
        )
        gpu.launch(scaled, random_access_bytes=4.0 * b)
        if i % DEFAULT_CONVERGENCE_BATCH == 0:
            gpu.d2h(_FSIZE)
    gpu.d2h(n * b * _FSIZE)
    return gpu


def estimate_cuda_breakdown(
    bench: BenchmarkGraph,
    n_beliefs: int,
    device: DeviceSpec | str = "gtx1070",
    *,
    paradigm: str = "node",
    model: IterationModel | None = None,
    work_queue: bool = True,
    schedule: str | None = None,
):
    """Paper-scale (total seconds, management fraction) for one CUDA
    backend — the §4.1.1 decomposition at Table 1 sizes.  Returns None
    when the graph exceeds VRAM."""
    device = get_device(device)
    model = model or IterationModel()
    sched = _resolve_schedule(schedule, work_queue)
    gpu = _estimate_cuda(
        bench.n_nodes, 2 * bench.n_edges, n_beliefs, paradigm, device, model, sched
    )
    if gpu is None:
        return None
    return gpu.elapsed, gpu.breakdown.management_fraction


def estimate_backend_times(
    bench: BenchmarkGraph,
    n_beliefs: int,
    device: DeviceSpec | str = "gtx1070",
    *,
    cpu: CpuSpec = I7_7700HQ,
    model: IterationModel | None = None,
    work_queue: bool = True,
    schedule: str | None = None,
) -> dict[str, float]:
    """Paper-scale modeled seconds for the four core backends.

    ``schedule`` names a scheduling policy (overrides the legacy
    ``work_queue`` boolean).  CUDA entries are omitted when the graph
    does not fit the device VRAM (§4.2's exclusions fall out naturally).
    """
    device = get_device(device)
    model = model or IterationModel()
    sched = _resolve_schedule(schedule, work_queue)
    n, m_directed = bench.n_nodes, 2 * bench.n_edges
    times: dict[str, float] = {}
    for paradigm in ("node", "edge"):
        times[f"c-{paradigm}"] = _estimate_cpu(
            n, m_directed, n_beliefs, paradigm, cpu, model, sched
        )
        cuda = _estimate_cuda(
            n, m_directed, n_beliefs, paradigm, device, model, sched
        )
        if cuda is not None:
            times[f"cuda-{paradigm}"] = cuda.elapsed
    return times
