"""repro.serve — batched, evidence-aware BP inference service.

The serving layer keeps graphs resident, freezes Credo's backend +
schedule choice per graph, coalesces concurrent queries on the same
graph into one batched BP sweep over a block-diagonal union graph,
applies admission control with backpressure, caches results, and
exposes latency/queue/cache metrics.  See DESIGN.md §8.
"""

from repro.serve.admission import AdmissionQueue, AdmissionRejected, DeadlineExpired
from repro.serve.batch import replicate_graph, run_batched
from repro.serve.cache import ResultCache, cache_key, freeze_evidence
from repro.serve.config import ServerConfig
from repro.serve.engine import QueryEngine, QueryOutcome
from repro.serve.metrics import LatencyHistogram, ServerMetrics
from repro.serve.protocol import ProtocolError, QueryRequest, QueryResponse
from repro.serve.registry import ModelRegistry, RegisteredModel, UnknownModelError
from repro.serve.server import InferenceServer

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "DeadlineExpired",
    "InferenceServer",
    "LatencyHistogram",
    "ModelRegistry",
    "ProtocolError",
    "QueryEngine",
    "QueryOutcome",
    "QueryRequest",
    "QueryResponse",
    "RegisteredModel",
    "ResultCache",
    "ServerConfig",
    "ServerMetrics",
    "UnknownModelError",
    "cache_key",
    "freeze_evidence",
    "replicate_graph",
    "run_batched",
]
