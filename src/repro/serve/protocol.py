"""JSON-lines wire protocol of ``credo serve``.

One JSON object per line, request → response.  Operations:

``{"op": "query", "model": "m", "evidence": {"name": 0}, ...}``
    Run (or batch, or answer from cache) one posterior query.  Optional
    fields: ``id`` (echoed), ``nodes`` (names/ids whose posteriors to
    return; default all), ``deadline_s``, ``use_cache`` (default true).
``{"op": "stats"}``
    The metrics snapshot (queue depth, latency percentiles, cache hit
    rate, batch-size distribution, per-backend iteration counts).
``{"op": "models"}``
    Registered models and their frozen execution plans.
``{"op": "load", "model": "m", "path": "g.bif"}``
    Register a graph file under a name.
``{"op": "reload", "model": "m"}``
    Re-parse a file-backed model (bumps its generation).
``{"op": "update", "model": "m", "add_nodes": [...], "add_edges": [...]}``
    Apply a structural :class:`~repro.stream.delta.GraphDelta` to a
    registered model in place.  Delta keys (at least one required):
    ``add_nodes``, ``add_edges``, ``remove_edges``, ``detach_nodes`` —
    the payload forms accepted by
    :meth:`~repro.stream.delta.GraphDelta.from_payload`.  Evidence keys
    (``observe``/``release``) are rejected: registered masters stay
    evidence-free, evidence travels with queries.  A non-empty delta
    bumps the model's generation.
``{"op": "shutdown"}``
    Stop the server loop.

Rejected requests answer ``{"ok": false, "error": "rejected",
"retry_after": <s>}`` — the backpressure contract: the client owns the
retry, the server never buffers beyond its admission bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.observation import evidence_state

__all__ = [
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "UpdateRequest",
    "parse_line",
    "dump",
]


class ProtocolError(ValueError):
    """Malformed request line."""


@dataclass
class QueryRequest:
    """One posterior query, as received off the wire (or built in-process)."""

    model: str
    evidence: dict[str, int] = field(default_factory=dict)
    nodes: list | None = None
    id: str | None = None
    deadline_s: float | None = None
    use_cache: bool = True

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryRequest":
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            raise ProtocolError("query needs a 'model' string")
        evidence = payload.get("evidence") or {}
        if not isinstance(evidence, dict):
            raise ProtocolError("'evidence' must be an object of node -> state")
        try:
            evidence = {str(k): evidence_state(v) for k, v in evidence.items()}
        except ValueError:
            raise ProtocolError("evidence states must be integers") from None
        nodes = payload.get("nodes")
        if nodes is not None and not isinstance(nodes, list):
            raise ProtocolError("'nodes' must be a list of names or ids")
        deadline = payload.get("deadline_s")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise ProtocolError("'deadline_s' must be a number of seconds") from None
        request_id = payload.get("id")
        if request_id is not None:
            request_id = str(request_id)
        return cls(
            model=model,
            evidence=evidence,
            nodes=nodes,
            id=request_id,
            deadline_s=deadline,
            use_cache=bool(payload.get("use_cache", True)),
        )


#: delta payload keys an ``update`` request may carry
_DELTA_KEYS = ("add_nodes", "add_edges", "remove_edges", "detach_nodes")


@dataclass
class UpdateRequest:
    """One structural graph delta, as received off the wire.

    The delta itself stays a plain payload dict here — the serve layer
    hands it to :meth:`repro.serve.registry.ModelRegistry.update`, which
    validates it via :meth:`~repro.stream.delta.GraphDelta.from_payload`
    against the actual graph.  This class only enforces the wire shape.
    """

    model: str
    delta: dict
    id: str | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "UpdateRequest":
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            raise ProtocolError("update needs a 'model' string")
        if "observe" in payload or "release" in payload:
            raise ProtocolError(
                "updates must not carry evidence; send it with queries"
            )
        delta: dict = {}
        for key in _DELTA_KEYS:
            if key not in payload:
                continue
            value = payload[key]
            if not isinstance(value, list):
                raise ProtocolError(f"'{key}' must be a list")
            delta[key] = value
        if not delta:
            raise ProtocolError(
                "update needs at least one delta key: " + ", ".join(_DELTA_KEYS)
            )
        request_id = payload.get("id")
        if request_id is not None:
            request_id = str(request_id)
        return cls(model=model, delta=delta, id=request_id)


@dataclass
class QueryResponse:
    """One query's answer; ``to_payload`` is the wire form."""

    ok: bool
    id: str | None = None
    model: str | None = None
    posteriors: dict[str, list[float]] | None = None
    backend: str | None = None
    schedule: str | None = None
    iterations: int | None = None
    converged: bool | None = None
    cached: bool = False
    batch_size: int | None = None
    timings: dict[str, float] | None = None
    error: str | None = None
    detail: str | None = None
    retry_after: float | None = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"ok": self.ok}
        for key in (
            "id",
            "model",
            "posteriors",
            "backend",
            "schedule",
            "iterations",
            "converged",
            "batch_size",
            "timings",
            "error",
            "detail",
            "retry_after",
        ):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.ok:
            payload["cached"] = self.cached
        return payload


def parse_line(line: str) -> dict:
    """One wire line → op payload dict (with ``"op"`` defaulting to query)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    payload.setdefault("op", "query")
    if not isinstance(payload["op"], str):
        raise ProtocolError("'op' must be a string")
    return payload


def dump(payload: dict) -> str:
    """Compact single-line JSON (the response framing)."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)
