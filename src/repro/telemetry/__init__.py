"""repro.telemetry — unified tracing, metrics & profiling (DESIGN.md §11).

The observability layer the perf work is judged against: a span-based
tracer with two clock domains (wall for real Python execution, modeled
for the simulated GPUs), a counter/gauge/histogram registry, and two
exporters — Chrome trace-event JSON (Perfetto-loadable, one lane per
thread / simulated device) and a text summary table.

The default global tracer is a no-op; ``credo profile`` (or any caller
via :func:`use_tracer`) installs a live one.  Instrumented runs are
bit-exact with uninstrumented ones — tracing observes, never steers.
"""

from repro.telemetry.export import (
    chrome_trace,
    summary_table,
    trace_lanes,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.telemetry.tracer import (
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

#: process-wide metrics registry — the kernel lowering publishes its
#: build-time histogram here so ``credo profile`` can read it without
#: plumbing a registry through every layer
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _METRICS


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "chrome_trace",
    "get_metrics",
    "get_tracer",
    "set_tracer",
    "summary_table",
    "trace_lanes",
    "use_tracer",
    "validate_chrome_trace",
    "write_chrome_trace",
]
