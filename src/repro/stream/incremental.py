"""Incremental re-convergence for mutable graphs (DESIGN.md §15).

After a :class:`~repro.stream.delta.GraphDelta`, the posterior mass that
actually moves concentrates around the dirty region (Gonzalez et al.,
*Distributed Parallel Inference on Large Factor Graphs*).  The
:class:`IncrementalEngine` exploits that: it keeps the converged
:class:`~repro.core.state.LoopyState` alive between deltas, patches or
migrates it instead of rebuilding, and restricts the schedule's initial
active set to the dirty region plus its downstream frontier — the PR-1
schedule machinery (work queue, residual priorities) then grows the
active set exactly as far as the perturbation propagates.

Executor lowerings bind to the state's structure, so they are reused
across evidence-only deltas and dropped only when structure actually
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.loopy import LoopyBP, LoopyConfig, LoopyResult
from repro.core.numeric import TINY32, safe_log
from repro.core.state import LoopyState
from repro.stream.delta import DeltaResult, GraphDelta, apply_delta, apply_evidence
from repro.telemetry import get_metrics, get_tracer

__all__ = ["IncrementalEngine", "IncrementalResult"]


@dataclass
class IncrementalResult:
    """One delta's re-convergence outcome.

    ``mode`` records the path taken: ``"incremental"`` (warm start,
    dirty-region schedule) or ``"full"`` (cold re-convergence, used
    before the first :meth:`IncrementalEngine.converge` or when the
    dirty fraction exceeds the Credo ceiling).
    """

    result: LoopyResult
    mode: str
    structural: bool
    dirty_fraction: float
    reused_lowerings: bool

    @property
    def beliefs(self) -> np.ndarray:
        return self.result.beliefs

    @property
    def edges_swept(self) -> int:
        return int(self.result.run_stats.total.edges_processed)


class IncrementalEngine:
    """Warm-started BP over a mutable graph.

    Owns the graph, the cached converged state, and the executor cache.
    Apply deltas through :meth:`apply`; the engine decides incremental
    vs. full via :meth:`CredoSelector.select_update_mode`.

    ``engine.graph`` is the engine's live graph, not a snapshot: once a
    converged state is cached, an evidence-only delta patches it in place
    (:func:`~repro.stream.delta.apply_evidence`), so an update costs what
    it touches.  Take ``engine.graph.copy()`` to keep a graph as it was.
    Structural deltas, and any delta before the first convergence, build
    a new graph through :func:`~repro.stream.delta.apply_delta`.
    """

    def __init__(self, graph, config: LoopyConfig | None = None):
        self.graph = graph
        self.config = config if config is not None else LoopyConfig()
        self._state: LoopyState | None = None
        #: compiled executors keyed by (paradigm, chunks); valid only
        #: while self._state's structure is unchanged
        self._executor_cache: dict = {}
        self.structure_generation = 0
        self.updates_applied = 0

    # ------------------------------------------------------------------
    def converge(self) -> LoopyResult:
        """Cold full convergence; caches the resulting state."""
        with get_tracer().span("stream.converge", cat="stream"):
            state = LoopyState(self.graph)
            self._executor_cache.clear()
            result = LoopyBP(self.config).run(
                self.graph, state=state, executor_cache=self._executor_cache
            )
            self._state = state
        return result

    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> IncrementalResult:
        """Apply ``delta`` and re-converge, warm-starting when profitable."""
        from repro.credo.selector import CredoSelector

        with get_tracer().span("stream.apply", cat="stream"):
            if self._state is not None and not delta.structural:
                res = apply_evidence(self.graph, delta)
            else:
                res = apply_delta(self.graph, delta)
                self.graph = res.graph
            self.updates_applied += 1
            metrics = get_metrics()
            metrics.counter("stream.updates").inc()
            metrics.gauge("stream.dirty_fraction").set(res.dirty_fraction)

            mode = CredoSelector().select_update_mode(res.dirty_fraction)
            if self._state is None:
                mode = "full"
            if mode == "full":
                if res.structural:
                    self.structure_generation += 1
                result = self.converge()
                return IncrementalResult(
                    result, "full", res.structural, res.dirty_fraction, False
                )

            reused = True
            if res.structural:
                self._state = self._migrate_state(self._state, res)
                self._executor_cache.clear()
                self.structure_generation += 1
                reused = False
            else:
                self._patch_evidence(self._state, res)
            state = self._state

            # Dirty beliefs must reflect the patched priors/evidence before
            # neighbours read them (node paradigm gathers neighbour beliefs).
            dirty = res.dirty_nodes
            free_dirty = dirty[state.free_mask[dirty]] if len(dirty) else dirty
            if len(free_dirty):
                state.recombine(free_dirty)

            seed = self._seed_elements(state, dirty)
            result = LoopyBP(self.config).run(
                self.graph,
                state=state,
                active_seed=seed,
                executor_cache=self._executor_cache,
            )
        return IncrementalResult(
            result, "incremental", res.structural, res.dirty_fraction, reused
        )

    # ------------------------------------------------------------------
    def _patch_evidence(self, state: LoopyState, res: DeltaResult) -> None:
        """Patch the state's dirty rows to the graph's new evidence.

        The state already reads the engine's graph, which the delta
        patched in place.  Buffers mutate in place (the dirty rows of
        ``free_mask``, ``log_priors`` and ``beliefs``) so compiled
        lowerings stay valid.
        """
        graph = res.graph
        dirty = res.dirty_nodes
        if not len(dirty):
            return
        obs = graph.observed[dirty]
        state.free_mask[dirty] = ~obs
        pri = graph.priors[dirty]  # a copy: the clamp below writes it
        if obs.any():
            rows = np.flatnonzero(obs)
            pri[rows] = TINY32
            pri[rows, graph.observed_state[dirty[rows]]] = 1.0
        state.log_priors[dirty] = safe_log(pri, TINY32)
        observed_dirty = dirty[obs]
        if len(observed_dirty):
            one_hot = np.eye(state.b, dtype=np.float32)[graph.observed_state[observed_dirty]]
            state.set_beliefs(observed_dirty, one_hot)

    def _migrate_state(self, old: LoopyState, res: DeltaResult) -> LoopyState:
        """Rebuild the state for a new structure, keeping converged messages.

        Surviving edges carry their messages over via the delta's edge
        map; new edges start uniform.  Beliefs are loaded warm from the
        graph's beliefs (``apply_delta`` preserved them).
        """
        state = LoopyState(res.graph)
        state.set_beliefs(slice(None), res.graph.beliefs)
        if res.edge_map is not None:
            state.adopt_messages(old, res.edge_map)
        return state

    def _seed_elements(self, state: LoopyState, dirty: np.ndarray) -> np.ndarray:
        """Schedule elements to repopulate: the dirty region's frontier.

        Node paradigm: the dirty nodes and their downstream neighbours
        (who must re-gather the changed beliefs).  Edge paradigm: the
        dirty nodes' outgoing edges (downstream requeueing propagates
        further).
        """
        if not len(dirty):
            return np.empty(0, dtype=np.int64)
        out_edges = state.gather_out_edges(dirty)
        if self.config.paradigm == "node":
            downstream = state.dst[out_edges]
            return np.unique(np.concatenate((dirty, downstream)))
        return np.unique(out_edges)
