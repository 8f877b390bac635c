"""Server configuration.

One frozen dataclass carries every serving knob — admission capacity,
micro-batch width, cache size, convergence settings — so it can be
threaded from the CLI through :class:`repro.credo.runner.Credo`
(``Credo.from_server_config``) down to the engine without a bag of
keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.convergence import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_THRESHOLD,
    ConvergenceCriterion,
)

__all__ = ["ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of a :class:`repro.serve.server.InferenceServer`.

    Parameters
    ----------
    device:
        Simulated GPU the Credo runner models (``gtx1070``/``v100``/…).
    backend, schedule:
        Pin the implementation / scheduling policy for every model;
        ``None`` lets the (amortized) selector decide per graph.
    threshold, max_iterations:
        The convergence criterion shared by every query; part of the
        result-cache key.
    queue_capacity:
        Bound of the admission queue.  The ``capacity+1``-st concurrent
        request is rejected with a retry-after hint, never dropped.
    max_batch:
        Upper bound on how many queries one micro-batch coalesces.
        ``1`` disables batching (the unbatched ablation mode).
    cache_capacity:
        LRU result-cache entries; ``0`` disables caching.
    default_deadline_s:
        Deadline applied to requests that do not carry their own;
        ``None`` means no deadline.
    """

    device: str = "gtx1070"
    backend: str | None = None
    schedule: str | None = None
    threshold: float = DEFAULT_THRESHOLD
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    queue_capacity: int = 64
    max_batch: int = 16
    cache_capacity: int = 256
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.default_deadline_s is not None and self.default_deadline_s < 0:
            raise ValueError("default_deadline_s must be non-negative")

    def criterion(self) -> ConvergenceCriterion:
        """The convergence criterion every served query runs under."""
        return ConvergenceCriterion(
            threshold=self.threshold, max_iterations=self.max_iterations
        )
