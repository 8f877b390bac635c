"""The long-lived inference server.

``InferenceServer`` ties the subsystem together: requests pass admission
control into the bounded queue, a worker thread pops model-affine
micro-batches, the engine executes them (cache → batched BP → per-query
isolation), and every stage feeds the metrics.  The server is
transport-agnostic — ``submit``/``query`` are the in-process API; the
CLI's stdin and socket loops (``credo serve``) are thin wrappers that
speak :mod:`repro.serve.protocol` over it.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.graph import BeliefGraph
from repro.credo.runner import Credo
from repro.serve.admission import AdmissionQueue, AdmissionRejected, Ticket
from repro.serve.cache import ResultCache
from repro.serve.config import ServerConfig
from repro.serve.engine import QueryEngine, QueryOutcome
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import QueryRequest, QueryResponse
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.telemetry import get_tracer

__all__ = ["InferenceServer"]


class InferenceServer:
    """Batched, evidence-aware BP inference service (in-process core).

    >>> server = InferenceServer()
    >>> server.register_model("g", graph)          # doctest: +SKIP
    >>> server.query("g", {"node_3": 1}).posteriors  # doctest: +SKIP
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        credo: Credo | None = None,
        autostart: bool = True,
    ):
        self.config = config or ServerConfig()
        self.credo = credo or Credo.from_server_config(self.config)
        self.metrics = ServerMetrics()
        self.cache = ResultCache(self.config.cache_capacity)
        self.registry = ModelRegistry(self.credo, backend=self.config.backend)
        self.engine = QueryEngine(self.credo, self.cache, self.metrics, self.config)
        self.admission = AdmissionQueue(self.config.queue_capacity)
        self.metrics.queue_depth_fn = self.admission.depth
        self._worker: threading.Thread | None = None
        self._stopping = threading.Event()
        self.started_at = time.time()
        if autostart:
            self.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._worker is not None and self._worker.is_alive():
            return
        self._stopping.clear()
        self._worker = threading.Thread(
            target=self._worker_loop, name="credo-serve-worker", daemon=True
        )
        self._worker.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stopping.set()
        self.admission.close()
        if self._worker is not None:
            self._worker.join(timeout)
            self._worker = None

    def __enter__(self) -> "InferenceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- model management ----------------------------------------------
    def load_model(self, name: str, path, edge_path=None):
        return self.registry.load(name, path, edge_path)

    def register_model(self, name: str, graph: BeliefGraph):
        return self.registry.register(name, graph)

    def reload_model(self, name: str):
        model = self.registry.reload(name)
        self.cache.invalidate_model(name)
        return model

    def update_model(self, name: str, delta):
        """Apply a :class:`~repro.stream.delta.GraphDelta` (or its payload
        dict) to a registered model; returns ``(model, DeltaResult)``.

        The generation bump already makes stale cache entries
        unreachable — the eager invalidation only frees their memory.
        """
        model, result = self.registry.update(name, delta)
        self.cache.invalidate_model(name)
        return model, result

    # -- request path ---------------------------------------------------
    def submit(self, request: QueryRequest) -> Ticket:
        """Admit one query; returns a ticket whose ``future`` resolves to
        a :class:`~repro.serve.protocol.QueryResponse`.

        Raises :class:`~repro.serve.admission.AdmissionRejected` when the
        queue is at capacity (backpressure — the caller owns the retry).
        """
        self.metrics.record_request()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("serve.admit", cat="serve",
                           args={"model": request.model,
                                 "depth": int(self.admission.depth())})
        if request.model not in self.registry:
            ticket = Ticket(request=request, model=request.model, enqueued_at=0.0)
            ticket.future.set_result(
                QueryResponse(
                    ok=False,
                    id=request.id,
                    model=request.model,
                    error="unknown_model",
                    detail=f"no model named {request.model!r} is registered",
                )
            )
            self.metrics.record_error()
            return ticket
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        try:
            return self.admission.submit(request, request.model, deadline)
        except AdmissionRejected:
            self.metrics.record_rejected()
            raise

    def query(
        self,
        model: str,
        evidence: dict | None = None,
        *,
        nodes: list | None = None,
        timeout: float | None = 30.0,
        use_cache: bool = True,
        request_id: str | None = None,
    ) -> QueryResponse:
        """Synchronous convenience wrapper over :meth:`submit`."""
        request = QueryRequest(
            model=model,
            evidence=dict(evidence or {}),
            nodes=nodes,
            id=request_id,
            use_cache=use_cache,
        )
        try:
            ticket = self.submit(request)
        except AdmissionRejected as exc:
            return QueryResponse(
                ok=False,
                id=request.id,
                model=model,
                error="rejected",
                detail=str(exc),
                retry_after=exc.retry_after,
            )
        return ticket.future.result(timeout)

    def stats(self) -> dict:
        """The observability snapshot (plain dict, JSON-serializable)."""
        snapshot = self.metrics.snapshot(cache_stats=self.cache.stats())
        snapshot["models"] = self.registry.describe()
        snapshot["uptime_s"] = time.time() - self.started_at
        return snapshot

    # -- worker ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            batch = self.admission.pop_batch(self.config.max_batch, timeout=0.25)
            if not batch:
                continue
            self._serve_batch(batch)
        # drain whatever is left so no future hangs after stop()
        while True:
            batch = self.admission.pop_batch(self.config.max_batch, timeout=0.0)
            if not batch:
                break
            self._serve_batch(batch)

    def _serve_batch(self, batch: list[Ticket]) -> None:
        tracer = get_tracer()
        now = self.admission.clock()
        runnable: list[Ticket] = []
        for ticket in batch:
            wait = now - ticket.enqueued_at
            self.metrics.record_stage("queue_wait", wait)
            if tracer.enabled:
                # enqueued_at is the admission queue's clock, not the
                # tracer's — record the measured duration retroactively
                # as a span ending now
                tracer.complete("serve.queue_wait", wait, cat="serve",
                                args={"model": ticket.model})
            if ticket.expired(now):
                self.metrics.record_deadline_expired()
                ticket.future.set_result(
                    QueryResponse(
                        ok=False,
                        id=ticket.request.id,
                        model=ticket.model,
                        error="deadline_expired",
                        detail="deadline passed while queued",
                    )
                )
            else:
                runnable.append(ticket)
        if not runnable:
            return

        select_start = time.perf_counter()
        try:
            with tracer.span("serve.select", cat="serve") as sp:
                model = self.registry.get(runnable[0].model)
                if sp:
                    sp.set(model=model.name, batch=len(runnable))
        except UnknownModelError:
            for ticket in runnable:
                ticket.future.set_result(
                    QueryResponse(
                        ok=False,
                        id=ticket.request.id,
                        model=ticket.model,
                        error="unknown_model",
                    )
                )
                self.metrics.record_error()
            return
        # amortized: the plan lookup *is* the whole selection stage
        self.metrics.record_stage("select", time.perf_counter() - select_start)

        run_start = time.perf_counter()
        try:
            with tracer.span("serve.run", cat="serve") as sp:
                outcomes = self.engine.execute(model, [t.request for t in runnable])
                if sp:
                    sp.set(model=model.name, batch=len(runnable),
                           backend=model.plan.backend)
        except Exception as exc:  # defensive: engine bugs must not hang futures
            for ticket in runnable:
                ticket.future.set_result(
                    QueryResponse(
                        ok=False,
                        id=ticket.request.id,
                        model=ticket.model,
                        error="internal",
                        detail=str(exc),
                    )
                )
                self.metrics.record_error()
            return
        run_elapsed = time.perf_counter() - run_start
        self.metrics.record_stage("run", run_elapsed)
        self.admission.observe_service_time(run_elapsed / max(len(runnable), 1))

        finish = self.admission.clock()
        for ticket, outcome in zip(runnable, outcomes):
            total = finish - ticket.enqueued_at
            self.metrics.record_stage("total", total)
            ticket.future.set_result(
                self._response(ticket, model, outcome, total, run_elapsed)
            )

    def _response(
        self,
        ticket: Ticket,
        model,
        outcome: QueryOutcome,
        total_s: float,
        run_s: float,
    ) -> QueryResponse:
        request: QueryRequest = ticket.request
        if not outcome.ok:
            self_error = outcome.error or "error"
            return QueryResponse(
                ok=False,
                id=request.id,
                model=model.name,
                error=self_error,
                detail=outcome.detail,
            )
        graph = model.graph
        node_ids = range(graph.n_nodes) if outcome.node_ids is None else outcome.node_ids
        posteriors = {
            graph.node_names[i]: [
                float(v) for v in outcome.posteriors[i, : graph.dims[i]]
            ]
            for i in node_ids
        }
        return QueryResponse(
            ok=True,
            id=request.id,
            model=model.name,
            posteriors=posteriors,
            backend=model.plan.backend,
            schedule=model.plan.schedule,
            iterations=outcome.iterations,
            converged=outcome.converged,
            cached=outcome.cached,
            batch_size=outcome.batch_size,
            timings={
                "queue_wait_s": round(total_s - run_s, 6) if total_s >= run_s else 0.0,
                "run_s": round(run_s, 6),
                "total_s": round(total_s, 6),
            },
        )

    # -- raw posterior access (tests / benchmarks) -----------------------
    def query_posteriors(
        self, model: str, evidence: dict | None = None, timeout: float | None = 30.0
    ) -> np.ndarray:
        """Full ``(n, b)`` posterior matrix for one query (dense graphs)."""
        response = self.query(model, evidence, timeout=timeout)
        if not response.ok:
            raise RuntimeError(f"query failed: {response.error}: {response.detail}")
        graph = self.registry.get(model).graph
        out = np.zeros((graph.n_nodes, graph.n_states), dtype=np.float32)
        for name, probs in response.posteriors.items():
            i = graph.node_id(name)
            out[i, : len(probs)] = probs
        return out
