"""repro.kernels — the compiled sweep-execution layer (DESIGN.md §13).

Historically every sweep dispatched through the per-sweep kernel
functions (:func:`repro.core.node_kernel.node_sweep`,
:func:`repro.core.edge_kernel.edge_sweep`), one NumPy call per step and
a fresh temporary per intermediate.  This package runs each sweep, full
or partial, as one fused gather–scatter NumPy program over the swept
edges — message gather, log-space product, normalize, residual,
scatter, combine:

:mod:`repro.kernels.executor`
    The :class:`SweepExecutor` protocol, the ``EXECUTORS`` registry and
    the interpreted executor (bit-exact, the pinned reference).

:mod:`repro.kernels.compiled`
    The compiled executor, the default: fused sweeps over any active
    set, scratch sized by the sweep.  Validated bit-exact against the
    interpreted executor (``tests/test_kernels_executor.py``,
    ``tests/test_property_active_set.py``).

:mod:`repro.kernels.layout`
    Belief-store layout as a first-class measured choice — the
    ``LAYOUTS`` registry (``aos`` / ``soa`` / ``blocked``) and
    structure-sharing graph conversion.

:mod:`repro.kernels.autotune`
    The plan-time layout autotuner: deterministic probe-sweep costing
    under a fixed measurement seed, recorded on
    :class:`repro.credo.runner.ExecutionPlan`.

:mod:`repro.kernels.ir`
    The buffer-op IR the compiled lowering emits — per-op read/write/
    alias sets over named buffers — plus the plan-time verifier
    (:func:`~repro.kernels.ir.verify_program`) and the optional runtime
    cross-check (:func:`~repro.kernels.ir.check_buffers`).
"""

from repro.kernels.autotune import LayoutDecision, autotune_layout
from repro.kernels.executor import (
    EXECUTORS,
    InterpretedExecutor,
    SweepExecutor,
    make_executor,
    normalize_executor,
)
from repro.kernels.ir import (
    BufferOp,
    BufferSpec,
    KernelProgram,
    KernelVerificationError,
    check_buffers,
    verify_program,
)
from repro.kernels.layout import LAYOUTS, normalize_layout, with_layout

__all__ = [
    "BufferOp",
    "BufferSpec",
    "EXECUTORS",
    "KernelProgram",
    "KernelVerificationError",
    "LAYOUTS",
    "InterpretedExecutor",
    "LayoutDecision",
    "SweepExecutor",
    "autotune_layout",
    "check_buffers",
    "make_executor",
    "normalize_executor",
    "normalize_layout",
    "verify_program",
    "with_layout",
]
