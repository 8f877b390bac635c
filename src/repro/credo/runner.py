"""The Credo facade (paper §3.1).

``Credo`` wires the whole pipeline together: load the graph (any
supported format), extract metadata features, select the implementation
(rule + classifier) and execute BP with it.  "With all of the
optimizations discussed herein enabled, these implementations enable us
to run more efficiently and outperform previous efforts."
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.backends.base import Backend, RunResult
from repro.backends.c_backends import CEdgeBackend, CNodeBackend
from repro.backends.cuda_backends import CudaEdgeBackend, CudaNodeBackend
from repro.core.convergence import ConvergenceCriterion
from repro.core.graph import BeliefGraph
from repro.core.scheduler import normalize_schedule
from repro.credo.selector import CredoSelector
from repro.credo.training import build_training_set
from repro.gpusim.arch import DeviceSpec, get_device
from repro.io.detect import load_graph
from repro.telemetry import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.config import ServerConfig

__all__ = ["Credo", "ExecutionPlan"]


def _check_executor(executor: str | None) -> None:
    """``executor=`` is kept as a keyword whose only value is
    ``"compiled"``: every sweep runs on the compiled executor."""
    if executor not in (None, "compiled"):
        raise ValueError(
            f"unknown executor {executor!r}; every sweep runs 'compiled'"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """A selector decision frozen for reuse across requests.

    The serving layer amortizes Credo's backend + schedule choice per
    *registered graph* instead of per query: :meth:`Credo.plan` runs the
    selection once and every subsequent :meth:`Credo.run` with ``plan=``
    skips feature extraction and classification entirely.
    """

    backend: str
    schedule: str

    @property
    def paradigm(self) -> str:
        """``"node"`` or ``"edge"``, from the backend name.  Backends
        whose names carry no paradigm suffix (``reference``,
        ``distributed``, ``openmp``, …) sweep per node."""
        tail = self.backend.rsplit("-", 1)[-1]
        return tail if tail in ("node", "edge") else "node"

    @property
    def qualified(self) -> str:
        """The ``"<backend>:<schedule>"`` registry-style name."""
        return f"{self.backend}:{self.schedule}"


class Credo:
    """Automatic-best-implementation belief propagation.

    >>> credo = Credo(device="gtx1070")
    >>> credo.train(profile="smoke")          # benchmark + fit selector
    >>> result = credo.run(graph)             # doctest: +SKIP
    >>> result.backend                        # doctest: +SKIP
    'cuda-node'
    """

    def __init__(
        self,
        device: DeviceSpec | str = "gtx1070",
        *,
        selector: CredoSelector | None = None,
        criterion: ConvergenceCriterion | None = None,
        schedule: str | None = None,
    ):
        """``schedule`` pins a scheduling policy for every run; ``None``
        runs the §3.5 work queue."""
        self.device = get_device(device)
        self.selector = selector or CredoSelector()
        self.criterion = criterion or ConvergenceCriterion()
        self.schedule = schedule
        self._backends: dict[str, Backend] = {
            "c-node": CNodeBackend(),
            "c-edge": CEdgeBackend(),
            "cuda-node": CudaNodeBackend(self.device),
            "cuda-edge": CudaEdgeBackend(self.device),
        }

    @classmethod
    def from_server_config(cls, config: "ServerConfig") -> "Credo":
        """Build a runner wired the way a :class:`repro.serve` server
        wants it: the config's device, convergence criterion and (when
        pinned) backend-independent schedule."""
        return cls(
            device=config.device,
            criterion=config.criterion(),
            schedule=config.schedule,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        *,
        profile: str | None = None,
        subset: tuple[str, ...] | None = None,
        use_cases: tuple[str, ...] = ("binary", "virus", "image"),
        seed: int = 0,
        verbose: bool = False,
    ) -> "Credo":
        """Benchmark the suite on this device and fit the selector."""
        rows = build_training_set(
            self.device,
            use_cases=use_cases,
            subset=subset,
            profile=profile,
            seed=seed,
            verbose=verbose,
        )
        self.selector.fit(rows)
        return self

    def train_paper_scale(
        self,
        *,
        subset: tuple[str, ...] | None = None,
        use_cases: tuple[str, ...] = ("binary", "virus", "image"),
        seed: int = 0,
        verbose: bool = False,
    ) -> "Credo":
        """Fit the selector on the Table 1-scale analytic dataset.

        Cheaper per variant than :meth:`train` (one small probe run each)
        and labelled at the paper's real graph sizes — the configuration
        the §4.3 experiments use.
        """
        from repro.credo.training import build_training_set_paper_scale

        rows = build_training_set_paper_scale(
            self.device,
            use_cases=use_cases,
            subset=subset,
            seed=seed,
            verbose=verbose,
        )
        self.selector.fit(rows)
        return self

    # ------------------------------------------------------------------
    def select(self, graph: BeliefGraph) -> str:
        """The backend Credo would choose for ``graph``."""
        with get_tracer().span("credo.select", cat="credo") as sp:
            choice = self.selector.select(graph)
            if sp:
                sp.set(backend=choice, n_nodes=graph.n_nodes,
                       n_edges=graph.n_edges,
                       fitted=self.selector._fitted)
        return choice

    def select_schedule(self, graph: BeliefGraph, backend: str | None = None) -> str:
        """The scheduling policy Credo would choose for ``graph``: the
        pinned one, else the §3.5 work queue.  ``residual`` and
        ``relaxed`` sweep exactly the queue's elements, so no graph
        feature can make one of them the faster choice."""
        return self.schedule or "work_queue"

    def plan(
        self,
        graph: BeliefGraph,
        *,
        backend: str | None = None,
        executor: str | None = None,
    ) -> ExecutionPlan:
        """Run selection once and freeze the decision for reuse.

        The returned :class:`ExecutionPlan` can be passed to :meth:`run`
        (any number of times, e.g. once per served query) to skip
        re-selection; ``backend=`` pins the backend and only the schedule
        is chosen.  It takes ``"backend[:schedule]"``, the spelling
        :attr:`ExecutionPlan.qualified` renders, so a plan round-trips
        through its name.  A name that cannot run raises here, not at
        :meth:`run`: ``KeyError`` for a backend Credo does not dispatch,
        ``ValueError`` for an unknown schedule.  ``executor=`` accepts
        only ``"compiled"``, the one sweep executor.
        """
        _check_executor(executor)
        with get_tracer().span("credo.plan", cat="credo") as sp:
            base_name, schedule = self._resolve(
                backend or self.select(graph), None, graph
            )
            if sp:
                sp.set(backend=base_name, schedule=schedule)
        return ExecutionPlan(backend=base_name, schedule=schedule)

    def run(
        self,
        graph: BeliefGraph,
        *,
        backend: str | None = None,
        schedule: str | None = None,
        plan: ExecutionPlan | None = None,
        executor: str | None = None,
    ) -> RunResult:
        """Select (or honour ``backend=``/``schedule=``/``plan=``) and
        execute BP.

        ``backend`` takes ``"backend[:schedule]"`` as :meth:`plan` does
        (``"c-node:residual"``); a spelled schedule wins unless
        ``schedule=`` is given explicitly.
        ``plan`` short-circuits selection entirely (amortized serving
        path); it is mutually exclusive with the other two.  ``executor=``
        accepts only ``"compiled"``, the one sweep executor.
        """
        _check_executor(executor)
        if plan is not None:
            if backend is not None or schedule is not None:
                raise ValueError(
                    "plan= is mutually exclusive with backend=/schedule="
                )
            backend, schedule = plan.backend, plan.schedule
        base_name, chosen = self._resolve(
            backend or self.select(graph), schedule, graph
        )
        engine = self._backends[base_name]
        result = engine.run(graph, criterion=self.criterion, schedule=chosen)
        result.detail["selected"] = base_name
        return result

    def check_backend(self, name: str) -> tuple[str, str | None]:
        """Split ``"backend[:schedule]"`` as :func:`get_backend` does and
        check both parts, no graph needed: ``KeyError`` for a backend
        Credo does not dispatch, ``ValueError`` for an unknown schedule.
        Returns the backend and the canonical schedule, or None when
        none is spelled."""
        base_name, _, qualifier = name.partition(":")
        if base_name not in self._backends:
            raise KeyError(
                f"unknown backend {base_name!r}; Credo dispatches "
                f"{sorted(self._backends)}"
            )
        return base_name, normalize_schedule(qualifier) if qualifier else None

    def _resolve(
        self, name: str, schedule: str | None, graph: BeliefGraph
    ) -> tuple[str, str]:
        """:meth:`check_backend`, then the schedule: an explicit
        ``schedule`` wins over a spelled one; with neither, Credo
        chooses."""
        base_name, qualifier = self.check_backend(name)
        chosen = schedule or qualifier or self.select_schedule(graph, base_name)
        return base_name, normalize_schedule(chosen)

    def select_file(self, node_path: str | Path, edge_path: str | Path) -> str:
        """Pick the backend for an MTX dual-file graph from its metadata
        alone — one streaming pass, the graph is never materialized
        (the §3.7 "a priori ... based solely on its metadata" promise)."""
        from repro.io.scan import scan_mtx_stats

        stats = scan_mtx_stats(node_path, edge_path)
        return self.selector.select_from_features(
            stats.features() if self.selector._fitted else None,
            n_nodes=stats.n_nodes,
            n_beliefs=stats.n_beliefs,
        )

    def run_file(
        self,
        path: str | Path,
        edge_path: str | Path | None = None,
        *,
        backend: str | None = None,
        executor: str | None = None,
    ) -> RunResult:
        """Load a graph file (BIF / XML-BIF / MTX dual-file) and run it."""
        graph = load_graph(path, edge_path)
        return self.run(graph, backend=backend, executor=executor)
