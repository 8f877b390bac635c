"""Streaming construction and incremental maintenance of belief graphs.

``repro.stream`` (DESIGN.md §15) makes models mutable end to end:

* :mod:`repro.stream.loader` — a chunked streaming loader that builds a
  :class:`~repro.core.graph.BeliefGraph` from the dual-file MTX format
  (§3.2) in bounded memory, growing structure arrays amortized instead
  of materializing intermediate edge lists;
* :mod:`repro.stream.delta` — :class:`GraphDelta`, a validated batch of
  add/remove node, edge, and evidence operations, plus a replayable
  :class:`DeltaJournal`;
* :mod:`repro.stream.incremental` — :class:`IncrementalEngine`, which
  re-converges after a delta by warm-starting from cached posteriors and
  repopulating only the dirty region's schedule.

The serve layer exposes the same machinery through the ``update``
request op (``repro.serve.protocol``) and ``credo update``.
"""

from repro.stream.delta import (
    DeltaJournal,
    DeltaResult,
    GraphDelta,
    JournalDecodeError,
    apply_delta,
    apply_evidence,
)
from repro.stream.incremental import IncrementalEngine, IncrementalResult
from repro.stream.loader import GrowableArray, StreamingGraphBuilder, load_graph_stream

__all__ = [
    "DeltaJournal",
    "DeltaResult",
    "GraphDelta",
    "GrowableArray",
    "IncrementalEngine",
    "IncrementalResult",
    "JournalDecodeError",
    "StreamingGraphBuilder",
    "apply_delta",
    "apply_evidence",
    "load_graph_stream",
]
