"""Model registry: graphs resident once, selection amortized.

The one-shot path (``credo run``) re-loads the graph, re-extracts
metadata features and re-selects a backend for every query.  A serving
deployment amortizes all three: :class:`ModelRegistry` loads each graph
exactly once (BIF / XML-BIF / MTX via :mod:`repro.io`), computes its
metadata features, and freezes Credo's backend + schedule choice into an
:class:`~repro.credo.runner.ExecutionPlan` reused by every request
against that graph.

Every registered model carries a monotonically increasing *generation*;
:meth:`reload` and a non-empty :meth:`update` (a
:class:`~repro.stream.delta.GraphDelta` applied in place) bump it, which
atomically invalidates result-cache entries (the generation is part of
the cache key).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.graph import BeliefGraph
from repro.credo.features import extract_features
from repro.credo.runner import Credo, ExecutionPlan
from repro.io.detect import load_graph

__all__ = ["RegisteredModel", "ModelRegistry", "UnknownModelError"]


class UnknownModelError(KeyError):
    """No model with that name is registered."""


@dataclass
class RegisteredModel:
    """One resident graph plus its amortized serving state."""

    name: str
    graph: BeliefGraph  #: pristine master copy — never carries evidence
    plan: ExecutionPlan
    features: np.ndarray
    generation: int
    source: str | None = None
    edge_source: str | None = None
    load_time_s: float = 0.0
    select_time_s: float = 0.0
    registered_at: float = field(default_factory=time.time)
    #: cumulative ``update`` deltas applied since registration
    updates_applied: int = 0
    #: per-batch-width replica graphs, reused across micro-batches
    #: (managed by the engine; dropped on reload)
    union_cache: dict[int, Any] = field(default_factory=dict)
    #: serializes execution against this model's cached unions
    lock: threading.Lock = field(default_factory=threading.Lock)

    def describe(self) -> dict:
        """Plain-dict summary (the ``{"op": "models"}`` response)."""
        return {
            "name": self.name,
            "generation": self.generation,
            "updates_applied": int(self.updates_applied),
            "n_nodes": int(self.graph.n_nodes),
            "n_edges": int(self.graph.n_edges),
            "n_states": int(self.graph.n_states),
            "backend": self.plan.backend,
            "schedule": self.plan.schedule,
            "source": self.source,
            "load_time_s": self.load_time_s,
            "select_time_s": self.select_time_s,
        }


class ModelRegistry:
    """Thread-safe name → :class:`RegisteredModel` map."""

    def __init__(self, credo: Credo, *, backend: str | None = None):
        self._credo = credo
        self._backend = backend  # optional pin forwarded to Credo.plan
        self._models: dict[str, RegisteredModel] = {}
        self._lock = threading.Lock()
        self._generation = 0

    # -- registration ---------------------------------------------------
    def load(
        self,
        name: str,
        path: str | Path,
        edge_path: str | Path | None = None,
    ) -> RegisteredModel:
        """Parse a graph file and register it under ``name``."""
        start = time.perf_counter()
        graph = load_graph(path, edge_path)
        load_time = time.perf_counter() - start
        model = self.register(name, graph)
        model.source = str(path)
        model.edge_source = None if edge_path is None else str(edge_path)
        model.load_time_s = load_time
        return model

    def register(self, name: str, graph: BeliefGraph) -> RegisteredModel:
        """Register an in-memory graph; selection runs once, here."""
        if graph.observed.any():
            raise ValueError(
                "registered graphs must be evidence-free; per-request "
                "evidence is applied on isolated views"
            )
        start = time.perf_counter()
        features = extract_features(graph)
        plan = self._credo.plan(graph, backend=self._backend)
        select_time = time.perf_counter() - start
        with self._lock:
            self._generation += 1
            model = RegisteredModel(
                name=name,
                graph=graph,
                plan=plan,
                features=features,
                generation=self._generation,
                select_time_s=select_time,
            )
            self._models[name] = model
        return model

    def update(self, name: str, delta) -> tuple[RegisteredModel, Any]:
        """Apply a :class:`~repro.stream.delta.GraphDelta` to a model.

        A non-empty delta bumps the model's generation: BP posteriors are
        globally coupled, so a change anywhere retires every cached
        result for the model.  Returns ``(model, DeltaResult)``.
        """
        from repro.stream.delta import GraphDelta, apply_delta

        if isinstance(delta, dict):
            delta = GraphDelta.from_payload(delta)
        if delta.observe or delta.release:
            raise ValueError(
                "registered models stay evidence-free; send evidence with "
                "queries, not updates"
            )
        model = self.get(name)
        with model.lock:
            result = apply_delta(model.graph, delta)
            if not delta.empty:
                with self._lock:
                    self._generation += 1
                    model.generation = self._generation
            model.graph = result.graph
            model.features = extract_features(result.graph)
            model.union_cache.clear()
            model.updates_applied += 1
        return model, result

    def reload(self, name: str) -> RegisteredModel:
        """Re-parse a file-backed model; bumps the generation.

        The new generation makes every cached result for the old graph
        unreachable (the cache key embeds it), so a reload is a safe,
        atomic swap even with queries in flight against the old entry.
        """
        old = self.get(name)
        if old.source is None:
            raise ValueError(f"model {name!r} was registered in-memory; cannot reload")
        return self.load(name, old.source, old.edge_source)

    def unregister(self, name: str) -> None:
        with self._lock:
            if self._models.pop(name, None) is None:
                raise UnknownModelError(name)

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> RegisteredModel:
        with self._lock:
            try:
                return self._models[name]
            except KeyError:
                raise UnknownModelError(name) from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def describe(self) -> list[dict]:
        with self._lock:
            models = list(self._models.values())
        return [m.describe() for m in models]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)
