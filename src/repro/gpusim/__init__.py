"""A SIMT GPU cost-model simulator (paper §2.3).

The paper's CUDA implementations ran on real NVIDIA hardware (a Pascal
GTX 1070, later a Volta V100).  This substrate stands in for that
hardware: it models the architectural quantities the paper's analysis
turns on —

* the SMX / thread-block / warp execution hierarchy and kernel-launch
  overhead (§2.3, Figure 2);
* the memory hierarchy: global memory bandwidth with coalescing
  (32-byte sectors), the constant-memory cache that holds the shared
  joint-probability matrix (§3.6), shared memory for the reductive sum;
* atomic-operation serialization under contention (§3.3's central
  trade-off);
* PCIe host↔device transfers with batching (§3.6);
* VRAM capacity limits (the TW/OR graphs "exceed the GPU's VRAM", §4.2);
* per-architecture differences: Volta's independent thread scheduling,
  cheaper atomics and higher memory bandwidth (§4.4).

Numerical results are always computed exactly (by the NumPy kernels); the
simulator only accounts *time*, deterministically.
"""

from repro.gpusim.arch import DeviceSpec, GTX1070, V100, A100, DEVICES, get_device
from repro.gpusim.device import GpuDevice, GpuOutOfMemoryError
from repro.gpusim.kernel import KernelCost, launch_cost
from repro.gpusim.atomics import atomic_cost
from repro.gpusim.transfer import transfer_time

__all__ = [
    "DeviceSpec",
    "GTX1070",
    "V100",
    "A100",
    "DEVICES",
    "get_device",
    "GpuDevice",
    "GpuOutOfMemoryError",
    "KernelCost",
    "launch_cost",
    "atomic_cost",
    "transfer_time",
]
