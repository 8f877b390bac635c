"""The :class:`SweepExecutor` protocol and registry (DESIGN.md §13).

An executor is *how* one sweep runs; the schedule decides *what* it
covers and the paradigm decides the element space.  The driver
(:class:`repro.core.loopy.LoopyBP`), the sharded per-shard loops and the
serving union path all construct their executor once per
:class:`~repro.core.state.LoopyState` through :func:`make_executor` and
then call :meth:`SweepExecutor.node_sweep` /
:meth:`SweepExecutor.edge_sweep` with exactly the signature of the
historical kernel functions.

Two executors are registered:

``"interpreted"``
    Delegates every call to :func:`repro.core.node_kernel.node_sweep`
    and :func:`repro.core.edge_kernel.edge_sweep` unchanged — the
    reference semantics every other executor is validated against.  Runs
    only where pinned: the parity tests, ``credo profile
    --verify-parity``'s baseline, the pure-Python reference backend.

``"compiled"``
    :class:`repro.kernels.compiled.CompiledExecutor`, the default: runs
    every sweep, full or partial, as one fused gather–scatter program
    over the swept edges.  Bit-exact with the interpreted executor (see
    the module docstring there for the ordering argument).
"""

from __future__ import annotations

import numpy as np

from repro.core.edge_kernel import edge_sweep
from repro.core.node_kernel import node_sweep
from repro.core.state import LoopyState
from repro.core.sweepstats import SweepStats

__all__ = [
    "EXECUTORS",
    "SweepExecutor",
    "InterpretedExecutor",
    "cached_executor",
    "make_executor",
    "normalize_executor",
]

#: the canonical executor names, reference first
EXECUTORS = ("interpreted", "compiled")

_ALIASES = {
    "interp": "interpreted",
    "python": "interpreted",
    "reference": "interpreted",
    "fused": "compiled",
    "lowered": "compiled",
}


def normalize_executor(name: str | None) -> str:
    """Canonical executor name, accepting common aliases (``None`` means
    the interpreted reference)."""
    if name is None:
        return EXECUTORS[0]
    canonical = str(name).lower().strip()
    canonical = _ALIASES.get(canonical, canonical)
    if canonical not in EXECUTORS:
        raise ValueError(f"unknown executor {name!r}; known: {list(EXECUTORS)}")
    return canonical


class SweepExecutor:
    """One BP sweep, as the paradigm plans see it.

    Implementations are bound to a single :class:`LoopyState` at
    construction (that is where lowering happens) and must be
    numerically **bit-exact** with the interpreted reference: same
    posteriors, same per-element deltas, same stored messages.
    ``build_seconds`` reports the one-off lowering cost so profiling can
    separate kernel-build time from sweep time.
    """

    name: str = "abstract"
    #: seconds spent lowering this executor (0 for the interpreted one)
    build_seconds: float = 0.0

    def node_sweep(
        self,
        state: LoopyState,
        active_nodes: np.ndarray,
        *,
        update_rule: str = "sum_product",
        semiring: str = "sum",
        damping: float = 0.0,
    ) -> tuple[np.ndarray, SweepStats]:
        """One per-node sweep; same contract as
        :func:`repro.core.node_kernel.node_sweep`."""
        raise NotImplementedError

    def edge_sweep(
        self,
        state: LoopyState,
        active_edges: np.ndarray,
        *,
        update_rule: str = "sum_product",
        semiring: str = "sum",
        damping: float = 0.0,
        chunks: int = 8,
    ) -> tuple[np.ndarray, np.ndarray, SweepStats]:
        """One per-edge sweep; same contract as
        :func:`repro.core.edge_kernel.edge_sweep`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class InterpretedExecutor(SweepExecutor):
    """The reference executor: per-call kernel-function dispatch."""

    name = "interpreted"

    def node_sweep(self, state, active_nodes, *, update_rule="sum_product",
                   semiring="sum", damping=0.0):
        return node_sweep(
            state, active_nodes,
            update_rule=update_rule, semiring=semiring, damping=damping,
        )

    def edge_sweep(self, state, active_edges, *, update_rule="sum_product",
                   semiring="sum", damping=0.0, chunks=8):
        return edge_sweep(
            state, active_edges,
            update_rule=update_rule, semiring=semiring, damping=damping,
            chunks=chunks,
        )


def make_executor(
    name: str,
    state: LoopyState,
    *,
    paradigm: str = "node",
    chunks: int = 8,
) -> SweepExecutor:
    """Build the executor ``name`` lowered against ``state``.

    ``paradigm`` and ``chunks`` tell the compiled executor which fused
    program to lower (the edge program's chunk boundaries are part of
    the lowering); the interpreted executor ignores both.
    """
    canonical = normalize_executor(name)
    if canonical == "interpreted":
        return InterpretedExecutor()
    from repro.kernels.compiled import CompiledExecutor  # deferred: heavier

    return CompiledExecutor(state, paradigm=paradigm, chunks=chunks)


def cached_executor(
    cache: dict | None,
    name: str,
    state: LoopyState,
    *,
    paradigm: str = "node",
    chunks: int = 8,
) -> SweepExecutor:
    """:func:`make_executor`, memoized in ``cache`` (a plain dict).

    Compiled executors lower against a specific state's buffer
    identities, so a cached lowering is only sound while those buffers
    persist.  The incremental engine (:mod:`repro.stream.incremental`)
    owns the cache: evidence-only deltas mutate the state's rows in
    place and keep it; structural deltas rebuild the state and clear it.
    ``cache=None`` degrades to an uncached build.
    """
    if cache is None:
        return make_executor(name, state, paradigm=paradigm, chunks=chunks)
    key = (normalize_executor(name), paradigm, chunks)
    executor = cache.get(key)
    if executor is None:
        executor = cache[key] = make_executor(
            name, state, paradigm=paradigm, chunks=chunks
        )
    return executor
