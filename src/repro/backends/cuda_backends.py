"""The CUDA Node and Edge backends (paper §3.6), executing on the
simulated GPU.

The lifecycle mirrors the paper's CUDA implementations:

1. allocate device buffers for beliefs, priors, messages, the log-sum
   accumulators, the adjacency indices and (when work queues are on)
   the queue arrays — each allocation pays driver overhead;
2. stage the shared joint-probability matrix in **constant memory**
   when it fits ("we make use of the global constant memory cache …
   to store the static joint probability matrix", §3.6);
3. one bulk host→device transfer of the graph;
4. per iteration: kernel launches accounted by the SIMT cost model,
   with the convergence scalar read back only every
   ``convergence_batch`` iterations (the §3.6 batching);
5. final device→host copy of the beliefs.

``supports`` reports whether the graph fits VRAM — the paper's TW and OR
graphs at 32 beliefs do not (§4.2), and graphs that do not fit are
excluded from the classifier dataset (§4.3).
"""

from __future__ import annotations

from repro.backends.base import Backend, BackendUnsupportedError, RunResult
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyBP
from repro.gpusim.arch import DeviceSpec, get_device
from repro.gpusim.device import GpuDevice, GpuOutOfMemoryError
from repro.gpusim.transfer import DEFAULT_CONVERGENCE_BATCH

__all__ = ["CudaNodeBackend", "CudaEdgeBackend"]

_FSIZE = 4
_ISIZE = 8


def _edge_potential_bytes(graph: BeliefGraph) -> int | None:
    """Global-memory bytes of the per-edge potential stacks; None when the
    graph shares one matrix (that one is staged separately, §3.6)."""
    return None if graph.potentials.shared else graph.potentials.nbytes()


def _graph_device_bytes(
    n: int,
    m: int,
    b: int,
    schedule: str = "work_queue",
    potential_bytes: int | None = None,
) -> dict[str, int]:
    """Device buffers a BP run over ``n`` nodes, ``m`` directed edges and
    ``b`` states needs, named as a real implementation would name its
    cudaMallocs.  The scheduling policy decides the bookkeeping buffers:
    queues hold element indices; priority schedules additionally keep a
    per-element residual key array.  ``potential_bytes`` sizes the
    per-edge potential stacks (see :func:`_edge_potential_bytes`)."""
    buffers = {
        "beliefs": n * b * _FSIZE,
        "beliefs_prev": n * b * _FSIZE,
        "priors": n * b * _FSIZE,
        "messages": m * b * _FSIZE,
        "log_msg_sum": n * b * _FSIZE,
        "edge_src": m * _ISIZE,
        "edge_dst": m * _ISIZE,
        "edge_rev": m * _ISIZE,
        "csr_in": (n + 1) * _ISIZE + m * _ISIZE,
        "csr_out": (n + 1) * _ISIZE + m * _ISIZE,
        "delta_scratch": max(n, m) * _FSIZE,
    }
    if schedule != "sync":
        buffers["queue"] = max(n, m) * _ISIZE
        buffers["queue_next"] = max(n, m) * _ISIZE
    if schedule in ("residual", "relaxed"):
        buffers["priority"] = max(n, m) * _FSIZE
    if potential_bytes is not None:
        buffers["potentials"] = potential_bytes
    return buffers


class _CudaBackend(Backend):
    platform = "gpu"

    def __init__(
        self,
        device: DeviceSpec | str = "gtx1070",
        *,
        threads_per_block: int = 1024,
        convergence_batch: int = DEFAULT_CONVERGENCE_BATCH,
    ):
        self.device_spec = get_device(device)
        self.threads_per_block = threads_per_block
        self.convergence_batch = max(1, convergence_batch)

    def supports(self, graph: BeliefGraph) -> bool:
        if not graph.uniform:
            return False
        # worst-case footprint: priority schedules carry the extra key array
        total = sum(_graph_device_bytes(
            graph.n_nodes, graph.n_edges, graph.n_states, "residual",
            _edge_potential_bytes(graph),
        ).values())
        return total <= self.device_spec.vram_bytes

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        update_rule: str = "sum_product",
    ) -> RunResult:
        assert self.paradigm is not None
        config = self._loopy_config(self.paradigm, criterion, schedule, update_rule)
        device = GpuDevice(self.device_spec)
        buffers = _graph_device_bytes(
            graph.n_nodes, graph.n_edges, graph.n_states, config.schedule,
            _edge_potential_bytes(graph),
        )
        try:
            for name, nbytes in buffers.items():
                device.alloc(name, nbytes)
        except GpuOutOfMemoryError as exc:
            raise BackendUnsupportedError(
                f"{self.name}: graph does not fit in {self.device_spec.name} VRAM"
            ) from exc

        # Shared matrix goes to the constant cache when it fits (§3.6);
        # otherwise it lives in global memory like the per-edge stacks.
        if graph.potentials.shared:
            pot_bytes = graph.potentials.nbytes()
            if pot_bytes <= self.device_spec.constant_mem_bytes:
                device.alloc("potentials", pot_bytes, space="constant")
            else:
                device.alloc("potentials", pot_bytes)

        # Bulk upload: graph data moves once and stays resident (§3.6).
        upload = sum(buffers.values()) + graph.potentials.nbytes()
        device.h2d(upload, calls=len(buffers) + 1)

        loopy, wall = self._timed(LoopyBP(config).run, graph)

        belief_bytes = 4.0 * graph.n_states
        for i, sweep in enumerate(loopy.run_stats.per_iteration, start=1):
            device.launch(
                sweep,
                threads_per_block=self.threads_per_block,
                random_access_bytes=belief_bytes,
            )
            if i % self.convergence_batch == 0:
                device.d2h(_FSIZE)  # batched convergence scalar (§3.6)
        # Final read-back of the posterior beliefs.
        device.d2h(graph.n_nodes * graph.n_states * _FSIZE)

        return self._result_from_loopy(
            self.name,
            loopy,
            wall,
            device.elapsed,
            device=self.device_spec.name,
            breakdown=device.breakdown,
            management_fraction=device.breakdown.management_fraction,
            kernel_count=device.kernel_count,
            schedule=config.schedule,
        )


class CudaNodeBackend(_CudaBackend):
    """Per-node kernels on the simulated GPU ("CUDA Node") — the paper's
    headline performer (up to ~120× on 2M×8M with three beliefs)."""

    name = "cuda-node"
    paradigm = "node"


class CudaEdgeBackend(_CudaBackend):
    """Per-edge kernels on the simulated GPU ("CUDA Edge") — pays atomics
    on the combine, profits as belief counts rise (Fig. 8)."""

    name = "cuda-edge"
    paradigm = "edge"
