"""Execution engines for loopy BP (paper §2.4, §3.6).

The paper's suite of implementations, reproduced one-for-one:

========================  ============================================
``reference``             unoptimized per-node Python loops (control
                          for the §2.1.1 algorithm comparison)
``c-node`` / ``c-edge``   the optimized single-threaded implementations
                          (vectorized NumPy here standing in for C)
``openmp``                simulated fork-join multicore (§2.4)
``openacc``               simulated pragma GPU offload with the
                          imprecise convergence check (§2.4)
``cuda-node``/``cuda-edge``  kernels accounted on :mod:`repro.gpusim`
========================  ============================================

Every backend returns a :class:`~repro.backends.base.RunResult` carrying
both the measured wall time and the cost-model **modeled time** used by
the figure reproductions.
"""

from repro.backends.base import Backend, RunResult, BackendUnsupportedError
from repro.backends.reference import ReferenceBackend
from repro.backends.c_backends import CNodeBackend, CEdgeBackend
from repro.backends.cuda_backends import CudaNodeBackend, CudaEdgeBackend
from repro.backends.openmp import OpenMPBackend
from repro.backends.openacc import OpenACCBackend
from repro.backends.distributed import DistributedBackend, ClusterSpec
from repro.backends.registry import get_backend, available_backends, BACKENDS, CORE_BACKENDS

__all__ = [
    "Backend",
    "RunResult",
    "BackendUnsupportedError",
    "ReferenceBackend",
    "CNodeBackend",
    "CEdgeBackend",
    "CudaNodeBackend",
    "CudaEdgeBackend",
    "OpenMPBackend",
    "OpenACCBackend",
    "DistributedBackend",
    "ClusterSpec",
    "get_backend",
    "available_backends",
    "BACKENDS",
    "CORE_BACKENDS",
]
