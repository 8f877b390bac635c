"""Backend registry: names → constructors.

Credo's selector (paper §3.7) works in terms of these four names —
``c-node``, ``c-edge``, ``cuda-node``, ``cuda-edge`` — plus the auxiliary
engines used in the preliminary §2.4 study.

:func:`get_backend` also takes ``"<backend>:<schedule>"`` (e.g.
``"c-node:residual"``): the part after the colon becomes the instance's
default scheduling policy, one of
:data:`repro.core.scheduler.SCHEDULES`.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.base import Backend
from repro.backends.c_backends import CEdgeBackend, CNodeBackend
from repro.backends.cuda_backends import CudaEdgeBackend, CudaNodeBackend
from repro.backends.distributed import DistributedBackend
from repro.backends.openacc import OpenACCBackend
from repro.backends.openmp import OpenMPBackend
from repro.backends.reference import ReferenceBackend
from repro.core.scheduler import normalize_schedule

__all__ = [
    "BACKENDS",
    "CORE_BACKENDS",
    "get_backend",
    "available_backends",
]

BACKENDS: dict[str, Callable[..., Backend]] = {
    "reference": ReferenceBackend,
    "c-node": CNodeBackend,
    "c-edge": CEdgeBackend,
    "cuda-node": CudaNodeBackend,
    "cuda-edge": CudaEdgeBackend,
    "openmp": OpenMPBackend,
    "openacc": OpenACCBackend,
    "distributed": DistributedBackend,
}

#: the four implementations Credo chooses among (§3.7)
CORE_BACKENDS = ("c-node", "c-edge", "cuda-node", "cuda-edge")


def get_backend(name: str, **kwargs) -> Backend:
    """Instantiate a backend by registry name.

    ``name`` may be schedule-qualified (``"c-node:residual"``); the
    qualifier sets the instance's ``default_schedule``.  GPU backends
    accept ``device=`` (a name or :class:`~repro.gpusim.arch.DeviceSpec`);
    ``openmp`` accepts ``threads=``; see each class for the full
    signature.
    """
    base_name, _, qualifier = name.partition(":")
    try:
        factory = BACKENDS[base_name]
    except KeyError:
        raise KeyError(
            f"unknown backend {base_name!r}; known: {sorted(BACKENDS)}"
        ) from None
    backend = factory(**kwargs)
    if qualifier:
        backend.default_schedule = normalize_schedule(qualifier)
    return backend


def available_backends() -> list[str]:
    return sorted(BACKENDS)
