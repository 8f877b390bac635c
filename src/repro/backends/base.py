"""Backend interface and run results.

A backend executes loopy BP on a :class:`~repro.core.graph.BeliefGraph`
and reports a :class:`RunResult` with two clocks:

* ``wall_time`` — real seconds measured around the numerical execution;
* ``modeled_time`` — the deterministic cost-model seconds for the
  hardware the backend represents (the paper's GTX 1070, the 8-core CPU,
  …).  The evaluation harness compares modeled times: that is the axis on
  which the paper's relative shapes (crossover at 1e5 nodes, Edge vs Node
  trade-offs) live.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.loopy import LoopyConfig, LoopyResult
from repro.core.sweepstats import SweepStats
from repro.telemetry import get_tracer

__all__ = ["Backend", "RunResult", "BackendUnsupportedError"]


class BackendUnsupportedError(RuntimeError):
    """The backend cannot run this graph (e.g. exceeds simulated VRAM)."""


@dataclass
class RunResult:
    """Outcome of one backend execution."""

    backend: str
    beliefs: np.ndarray
    iterations: int
    converged: bool
    wall_time: float
    modeled_time: float
    delta_history: list[float] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    detail: dict[str, Any] = field(default_factory=dict)

    def speedup_vs(self, other: "RunResult") -> float:
        """other's modeled time over ours (> 1 means we are faster)."""
        if self.modeled_time <= 0:
            return float("inf")
        return other.modeled_time / self.modeled_time


def _traced_run(run_fn):
    """Wrap a backend ``run`` in a ``backend.run`` telemetry span.

    Applied once per concrete ``run`` override via
    ``Backend.__init_subclass__`` so every engine is covered without
    per-backend boilerplate; a no-op span when tracing is disabled.
    """

    @functools.wraps(run_fn)
    def wrapper(self, graph, **kwargs):
        with get_tracer().span("backend.run", cat="backend") as sp:
            result = run_fn(self, graph, **kwargs)
            if sp:
                sp.set(
                    backend=result.backend,
                    platform=self.platform,
                    n_nodes=graph.n_nodes,
                    n_edges=graph.n_edges,
                    iterations=result.iterations,
                    converged=result.converged,
                    modeled_time_s=result.modeled_time,
                )
        return result

    wrapper._telemetry_wrapped = True
    return wrapper


class Backend:
    """Abstract execution engine."""

    #: registry key, e.g. ``"cuda-node"``
    name: str = "abstract"
    #: ``"cpu"`` or ``"gpu"``
    platform: str = "cpu"
    #: ``"node"``, ``"edge"`` or ``None`` (backend-chosen)
    paradigm: str | None = None
    #: schedule used when ``run`` gets no ``schedule``; registry variants
    #: like ``"c-node:residual"`` override it per instance
    default_schedule: str = "work_queue"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "_telemetry_wrapped", False):
            cls.run = _traced_run(run)

    def run(
        self,
        graph: BeliefGraph,
        *,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
        update_rule: str = "sum_product",
    ) -> RunResult:
        """Execute BP on ``graph`` (beliefs are updated in place).

        ``schedule`` is any name :func:`repro.core.scheduler.make_schedule`
        accepts.
        """
        raise NotImplementedError

    def supports(self, graph: BeliefGraph) -> bool:
        """Cheap feasibility check (memory limits, uniformity, …)."""
        return True

    # -- shared helpers ----------------------------------------------------
    def _loopy_config(
        self,
        paradigm: str,
        criterion: ConvergenceCriterion | None,
        schedule: str | None,
        update_rule: str,
    ) -> LoopyConfig:
        return LoopyConfig(
            paradigm=paradigm,
            update_rule=update_rule,
            criterion=criterion or ConvergenceCriterion(),
            schedule=schedule or self.default_schedule,
        )

    @staticmethod
    def _timed(fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - start

    @staticmethod
    def _result_from_loopy(
        name: str, loopy: LoopyResult, wall: float, modeled: float, **detail
    ) -> RunResult:
        return RunResult(
            backend=name,
            beliefs=loopy.beliefs,
            iterations=loopy.iterations,
            converged=loopy.converged,
            wall_time=wall,
            modeled_time=modeled,
            delta_history=loopy.delta_history,
            stats=loopy.run_stats.total,
            detail=detail,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
