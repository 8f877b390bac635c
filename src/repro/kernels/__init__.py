"""repro.kernels — the compiled sweep-execution layer (DESIGN.md §13).

Every sweep, full or partial, runs as one fused gather–scatter NumPy
program over the swept edges — message gather, log-space product,
normalize, residual, scatter, combine:

:mod:`repro.kernels.compiled`
    :class:`~repro.kernels.compiled.CompiledExecutor`, the one sweep
    executor, and the factories the drivers lower it through.  Checked
    bit-exact against the per-call reference kernels in
    :mod:`repro.core.node_kernel` and :mod:`repro.core.edge_kernel`
    (``tests/test_kernels_executor.py``,
    ``tests/test_property_active_set.py``).

:mod:`repro.kernels.layout`
    The belief-store layouts (``aos`` / ``soa`` / ``blocked``) and
    structure-sharing graph conversion, for the storage ablations.
    Sweeps run on :class:`~repro.core.state.LoopyState`'s dense copy of
    the beliefs, so the layout changes storage, never sweep time.
"""

# core/loopy.py imports compiled.py, and compiled.py imports modules of
# repro.core.  Importing repro.core first means loopy.py loads compiled.py
# in full, so either package can be imported first.
import repro.core  # noqa: F401
from repro.kernels.compiled import CompiledExecutor, cached_executor, make_executor
from repro.kernels.layout import LAYOUTS, with_layout

__all__ = [
    "CompiledExecutor",
    "LAYOUTS",
    "cached_executor",
    "make_executor",
    "with_layout",
]
