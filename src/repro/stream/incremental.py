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

Compiled-executor lowerings (PR 7) bind to the state's buffer
identities, so they are reused across evidence-only deltas and dropped
only when structure actually changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.loopy import LoopyBP, LoopyConfig, LoopyResult
from repro.core.numeric import TINY32, safe_log
from repro.core.state import LoopyState
from repro.stream.delta import DeltaResult, GraphDelta, apply_delta
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
    """

    def __init__(
        self,
        graph,
        config: LoopyConfig | None = None,
        *,
        dirty_max_fraction: float | None = None,
    ):
        from repro.credo.selector import INCREMENTAL_DIRTY_MAX_FRACTION

        self.graph = graph
        self.config = config if config is not None else LoopyConfig()
        self.dirty_max_fraction = (
            INCREMENTAL_DIRTY_MAX_FRACTION
            if dirty_max_fraction is None
            else float(dirty_max_fraction)
        )
        self._state: LoopyState | None = None
        #: compiled/interpreted executors keyed by (name, paradigm, chunks);
        #: valid only while self._state's buffers are unchanged
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
            res = apply_delta(self.graph, delta)
            self.graph = res.graph
            self.updates_applied += 1
            metrics = get_metrics()
            metrics.counter("stream.updates").inc()
            metrics.gauge("stream.dirty_fraction").set(res.dirty_fraction)

            mode = CredoSelector().select_update_mode(
                res.dirty_fraction, structural=res.structural
            )
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
                state.beliefs[free_dirty] = state.combine_nodes(free_dirty)

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
        """Rebind the state to the new graph; structure arrays are shared.

        Buffers mutate in place (rows of ``log_priors``/``beliefs``, the
        whole ``free_mask``) so compiled lowerings stay valid.
        """
        graph = res.graph
        state.graph = graph
        np.logical_not(graph.observed, out=state.free_mask)
        dirty = res.dirty_nodes
        if not len(dirty):
            return
        pri = graph.priors.rows(dirty)
        obs = graph.observed[dirty]
        if obs.any():
            rows = np.flatnonzero(obs)
            pri[rows] = TINY32
            pri[rows, graph.observed_state[dirty[rows]]] = 1.0
        state.log_priors[dirty] = safe_log(pri, TINY32)
        observed_dirty = dirty[obs]
        if len(observed_dirty):
            state.beliefs[observed_dirty] = 0.0
            state.beliefs[observed_dirty, graph.observed_state[observed_dirty]] = 1.0

    def _migrate_state(self, old: LoopyState, res: DeltaResult) -> LoopyState:
        """Rebuild the state for a new structure, keeping converged messages.

        Surviving edges carry their messages over via the delta's edge
        map; new edges start uniform.  Beliefs arrive warm through the
        graph's belief store (``apply_delta`` preserved them).
        """
        state = LoopyState(res.graph)
        edge_map = res.edge_map
        if edge_map is not None and len(edge_map):
            kept_old = np.flatnonzero(edge_map >= 0)
            if len(kept_old):
                state.messages[edge_map[kept_old]] = old.messages[kept_old]
                state._rebuild_log_msg_sum()
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
