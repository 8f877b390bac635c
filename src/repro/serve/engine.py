"""The query engine: evidence isolation, caching, micro-batching.

``execute`` takes one registered model and a list of concurrent queries
and returns index-aligned outcomes.  The pipeline per batch:

1. resolve + validate evidence against the model's pristine graph (bad
   queries fail individually, never the batch);
2. split cache hits out (keyed by graph generation + frozen evidence +
   convergence config + plan);
3. run the misses — micro-batched through
   :func:`repro.serve.batch.run_batched` on uniform graphs when batching
   is enabled, otherwise one isolated :meth:`Credo.run` per query on a
   ``BeliefGraph.copy`` — evidence never touches the master graph in
   either;
4. fill the cache and the metrics (batch sizes, per-backend iterations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.loopy import LoopyConfig
from repro.core.observation import evidence_state, observe
from repro.credo.runner import Credo
from repro.serve.cache import ResultCache, cache_key, copy_posteriors
from repro.serve.config import ServerConfig
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import RegisteredModel
from repro.telemetry import get_tracer

__all__ = ["QueryOutcome", "QueryEngine"]


@dataclass
class QueryOutcome:
    """One query's execution result (or per-query failure)."""

    ok: bool
    posteriors: np.ndarray | None = None
    iterations: int = 0
    converged: bool = False
    cached: bool = False
    batch_size: int = 1
    error: str | None = None
    detail: str | None = None


class QueryEngine:
    def __init__(
        self,
        credo: Credo,
        cache: ResultCache,
        metrics: ServerMetrics,
        config: ServerConfig,
    ):
        self.credo = credo
        self.cache = cache
        self.metrics = metrics
        self.config = config

    # ------------------------------------------------------------------
    def execute(self, model: RegisteredModel, queries: list[dict]) -> list[QueryOutcome]:
        """Run concurrent ``queries`` (each ``{"evidence": ..., "use_cache": ...}``
        mappings or :class:`~repro.serve.protocol.QueryRequest`-likes)
        against ``model``; outcomes align with the input order."""
        outcomes: list[QueryOutcome | None] = [None] * len(queries)
        prepared: list[tuple[int, tuple[tuple[int, int], ...], bool]] = []
        for i, query in enumerate(queries):
            evidence = getattr(query, "evidence", None)
            if evidence is None and isinstance(query, dict):
                evidence = query.get("evidence", {})
            use_cache = getattr(query, "use_cache", None)
            if use_cache is None:
                use_cache = query.get("use_cache", True) if isinstance(query, dict) else True
            try:
                frozen = self._resolve_evidence(model, evidence or {})
            except (KeyError, ValueError, IndexError) as exc:
                outcomes[i] = QueryOutcome(
                    ok=False, error="bad_evidence", detail=str(exc)
                )
                continue
            prepared.append((i, frozen, bool(use_cache)))

        plan = model.plan
        misses: list[tuple[int, tuple[tuple[int, int], ...], bool]] = []
        for i, frozen, use_cache in prepared:
            if use_cache:
                hit = self.cache.get(self._key(model, frozen))
                if hit is not None:
                    posteriors, iterations, converged = hit
                    outcomes[i] = QueryOutcome(
                        ok=True,
                        posteriors=copy_posteriors(posteriors),
                        iterations=iterations,
                        converged=converged,
                        cached=True,
                    )
                    self.metrics.record_query(plan.backend, 0)
                    continue
            misses.append((i, frozen, use_cache))

        hits = len(prepared) - len(misses)
        if misses:
            with get_tracer().span("serve.engine", cat="serve") as sp:
                self._run_misses(model, misses, outcomes)
                if sp:
                    sp.set(model=model.name, queries=len(queries),
                           cache_hits=hits, cache_misses=len(misses))
        elif hits and get_tracer().enabled:
            get_tracer().instant(
                "serve.cache_hit", cat="serve",
                args={"model": model.name, "queries": hits},
            )
        return [out if out is not None else QueryOutcome(ok=False, error="internal")
                for out in outcomes]

    # ------------------------------------------------------------------
    def _resolve_evidence(self, model: RegisteredModel, evidence) -> tuple:
        graph = model.graph
        if not isinstance(evidence, dict):
            raise ValueError("evidence must map node -> state")
        resolved: dict[int, int] = {}
        for node, state in evidence.items():
            node_id = graph.node_id(node)
            if not 0 <= node_id < graph.n_nodes:
                raise IndexError(f"node {node!r} out of range")
            state = evidence_state(state)
            dim = int(graph.dims[node_id])
            if not 0 <= state < dim:
                raise ValueError(
                    f"state {state} out of range for node {node!r} ({dim} states)"
                )
            resolved[node_id] = state
        return tuple(sorted(resolved.items()))

    def _key(self, model: RegisteredModel, frozen: tuple) -> tuple:
        return cache_key(
            model.name,
            model.generation,
            frozen,
            self.config.threshold,
            self.config.max_iterations,
            model.plan.backend,
            model.plan.schedule,
        )

    def _loopy_config(self, model: RegisteredModel) -> LoopyConfig:
        """The exact config the selected backend would build for a solo
        run — shared by the batched path so posteriors stay comparable."""
        return LoopyConfig(
            paradigm=model.plan.paradigm,
            update_rule="sum_product",
            criterion=self.credo.criterion,
            schedule=model.plan.schedule,
        )

    # ------------------------------------------------------------------
    def _run_misses(self, model, misses, outcomes) -> None:
        plan = model.plan
        batchable = model.graph.uniform and self.config.max_batch > 1
        if batchable:
            evidences = [list(frozen) for _, frozen, _ in misses]
            with model.lock:
                union = model.union_cache.pop(len(evidences), None)
                runs, union = self._run_batched(model, evidences, union)
                # small insertion-ordered LRU of replica graphs by width
                model.union_cache[len(evidences)] = union
                while len(model.union_cache) > 4:
                    model.union_cache.pop(next(iter(model.union_cache)))
            self.metrics.record_batch(len(evidences))
            for (i, frozen, use_cache), run in zip(misses, runs):
                outcomes[i] = QueryOutcome(
                    ok=True,
                    posteriors=run.beliefs,
                    iterations=run.iterations,
                    converged=run.converged,
                    batch_size=len(evidences),
                )
                self.metrics.record_query(plan.backend, run.iterations)
                if use_cache:
                    self.cache.put(
                        self._key(model, frozen),
                        (copy_posteriors(run.beliefs), run.iterations, run.converged),
                    )
            return

        for i, frozen, use_cache in misses:
            self.metrics.record_batch(1)
            try:
                view = model.graph.copy()
                for node, state in frozen:
                    observe(view, node, state)
                result = self.credo.run(view, plan=plan)
            except Exception as exc:  # per-query isolation
                outcomes[i] = QueryOutcome(ok=False, error="run_failed", detail=str(exc))
                self.metrics.record_error()
                continue
            posteriors = np.asarray(result.beliefs, dtype=np.float32)
            outcomes[i] = QueryOutcome(
                ok=True,
                posteriors=posteriors,
                iterations=result.iterations,
                converged=result.converged,
                batch_size=1,
            )
            self.metrics.record_query(plan.backend, result.iterations)
            if use_cache:
                self.cache.put(
                    self._key(model, frozen),
                    (copy_posteriors(posteriors), result.iterations, result.converged),
                )

    def _run_batched(self, model, evidences, union):
        from repro.serve.batch import run_batched

        return run_batched(
            model.graph, self._loopy_config(model), evidences, union=union
        )
