"""The traced run: spans around public calls, self time per layer.

:class:`LayerProbe` installs a live :class:`repro.telemetry.Tracer` and,
for the duration of a ``with`` block, wraps public functions of the
program in spans recorded on that same tracer.  The program's own spans
(``backend.run``, ``bp.run``, ``bp.sweep``, ``schedule.update``,
``stream.*``, ``serve.*``, ``credo.*``) land beside them, so one event
list nests every layer.  On exit the original functions are restored
and the null tracer is back.  Nothing inside ``src/`` is changed.

:func:`self_times` nests the recorded wall spans per thread and gives
each span its duration minus the part its child spans cover.
"""

from __future__ import annotations

import bisect
import functools
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: (module, class or None, attribute, span name): the public calls the
#: benchmark times from outside.  Functions imported by name into another
#: module are patched where they are looked up.
WRAPPED = (
    ("repro.credo.runner", None, "load_graph", "io.parse"),
    ("repro.credo.runner", "Credo", "run", "credo.run"),
    ("repro.credo.runner", "Credo", "select_schedule", "credo.select_schedule"),
    ("repro.core.state", "LoopyState", "__init__", "state.build"),
    ("repro.core.state", "LoopyState", "export_beliefs", "state.export"),
    ("repro.core.state", "LoopyState", "gather_in_edges", "sweep.gather"),
    ("repro.core.state", "LoopyState", "gather_out_edges", "sweep.gather"),
    ("repro.core.state", "LoopyState", "cavity_messages", "sweep.message"),
    ("repro.core.state", "LoopyState", "propagate_messages", "sweep.message"),
    ("repro.core.state", "LoopyState", "store_messages", "sweep.store"),
    ("repro.core.state", "LoopyState", "combine_nodes", "sweep.combine"),
    ("repro.core.state", "LoopyState", "combine_full", "sweep.combine"),
    ("repro.core.loopy", None, "cached_executor", "kernels.lower"),
    ("repro.serve.batch", None, "make_executor", "kernels.lower"),
    ("repro.stream.incremental", None, "apply_delta", "stream.apply_delta"),
    ("repro.stream.delta", None, "apply_delta", "stream.apply_delta"),
)

#: the admission wait is recorded after the fact, on the worker's lane,
#: over an interval in which the worker ran other batches: it does not
#: nest and is left out of self time
UNNESTED = "serve.queue_wait"


def _span_wrapper(fn, name: str, tracer, on_bytes=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, cat="bench") as sp:
            out = fn(*args, **kwargs)
            if on_bytes is not None:
                sp.set(bytes=on_bytes(args))
        return out

    return wrapper


def _file_bytes(args) -> int:
    """Bytes of the node file and edge file ``load_graph`` reads."""
    paths = [Path(a) for a in args[:2] if isinstance(a, (str, Path))]
    return sum(p.stat().st_size for p in paths if p.is_file())


class LayerProbe:
    """Context manager: live tracer plus benchmark-side wrappers."""

    def __init__(self):
        from repro.telemetry import Tracer

        self.tracer = Tracer()
        self._saved: list[tuple[object, str, object]] = []
        self._previous = None

    def __enter__(self) -> "LayerProbe":
        import importlib

        from repro.telemetry import get_tracer, set_tracer

        for module_name, cls_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(module, attr)
            on_bytes = _file_bytes if span == "io.parse" else None
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _span_wrapper(original, span, self.tracer, on_bytes))
        self._previous = get_tracer()
        set_tracer(self.tracer)
        return self

    def span(self, name: str):
        """A benchmark-owned span (the root of one op)."""
        return self.tracer.span(name, cat="bench")

    def __exit__(self, *exc) -> None:
        from repro.telemetry import set_tracer

        set_tracer(self._previous)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def events(self):
        return [e for e in self.tracer.events if e.domain == "wall"]


@dataclass
class SpanStats:
    """Per span name: count, total and self seconds, summed attributes."""

    count: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: (span name, attribute) -> sum over the spans that set it
    attrs: dict[tuple[str, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: per bp.sweep / serve.union_sweep: (seconds, edges, active, n_elements)
    sweeps: list[tuple[float, int, int, int]] = field(default_factory=list)
    #: seconds of the outermost select spans (select nested in
    #: select_schedule counts once)
    select_s: float = 0.0


def self_times(events) -> SpanStats:
    """Nest wall spans per thread and compute each span's self time."""
    stats = SpanStats()
    by_thread = defaultdict(list)
    for e in events:
        if e.duration <= 0.0:  # instants
            continue
        stats.count[e.name] += 1
        stats.total[e.name] += e.duration
        for key, value in (e.args or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                stats.attrs[(e.name, key)] += value
        if e.name != UNNESTED:
            by_thread[e.thread].append(e)

    select_names = ("credo.select", "credo.select_schedule")
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e.start, -e.duration))
        stack: list[list] = []  # [event, child seconds, n_elements]
        for e in spans:
            while stack and stack[-1][0].start + stack[-1][0].duration <= e.start + 1e-9:
                _close(stack.pop(), stats)
            if e.name in select_names and not any(
                s[0].name in select_names for s in stack
            ):
                stats.select_s += e.duration
            if stack:
                stack[-1][1] += e.duration
            n_elements = 0
            if e.name == "bp.sweep":
                for frame in reversed(stack):
                    if frame[0].name == "bp.run":
                        n_elements = frame[2]
                        break
            stack.append([e, 0.0, (e.args or {}).get("n_elements", n_elements)])
        while stack:
            _close(stack.pop(), stats)
    return stats


def _close(frame, stats: SpanStats) -> None:
    e, child, n_elements = frame
    stats.self_s[e.name] += max(e.duration - child, 0.0)
    if e.name in ("bp.sweep", "serve.union_sweep"):
        args = e.args or {}
        stats.sweeps.append((
            e.duration,
            int(args.get("edges_processed", 0)),
            int(args.get("active", 0)),
            int(n_elements),
        ))


def rooted(events, root: str = "bench.op"):
    """The events that lie inside some ``root`` span, on any thread (the
    serve worker's spans fall inside the generator's root span)."""
    windows = sorted((e.start, e.start + e.duration) for e in events if e.name == root)
    starts = [lo for lo, _ in windows]
    inside = []
    for e in events:
        i = bisect.bisect_right(starts, e.start + 1e-9) - 1
        if i >= 0 and e.start + e.duration <= windows[i][1] + 1e-9:
            inside.append(e)
    return inside


def layer_metrics(events, ops: int) -> dict[str, float]:
    """Span-derived per-layer metrics, per op, from one traced phase.

    Times are seconds per op; ``credo.plan_s`` is seconds per plan call
    and is taken from every event, set-up included.  Everything else
    counts only spans inside the benchmark's op spans.
    """
    every = self_times(events)
    stats = self_times(rooted(events))
    total, self_s, attrs = stats.total, stats.self_s, stats.attrs
    per = 1.0 / max(ops, 1)
    parse_s = total["io.parse"]
    backend = total["backend.run"]
    modeled = attrs[("backend.run", "modeled_time_s")]

    full = [s for s in stats.sweeps if s[3] and s[2] == s[3] and s[1]]
    partial = [s for s in stats.sweeps if s[3] and s[2] < s[3] and s[1]]
    known = [s for s in stats.sweeps if s[3]]

    def ns_per_edge(sweeps):
        edges = sum(s[1] for s in sweeps)
        return 1e9 * sum(s[0] for s in sweeps) / edges if edges else 0.0

    return {
        "io.parse_s": parse_s * per,
        "io.parse_mib_per_s": (
            attrs[("io.parse", "bytes")] / 2**20 / parse_s if parse_s else 0.0
        ),
        "credo.select_s": stats.select_s * per,
        "credo.plan_s": (
            every.total["credo.plan"] / every.count["credo.plan"]
            if every.count["credo.plan"] else 0.0
        ),
        "backend.overhead_s": (backend - total["bp.run"]) * per if backend else 0.0,
        "backend.modeled_s": modeled * per,
        "backend.modeled_over_wall": modeled / backend if backend else 0.0,
        "state.build_s": total["state.build"] * per,
        "state.export_s": total["state.export"] * per,
        "kernels.lower_s": attrs[("bp.run", "kernel_build_s")] * per,
        "sweep.count": len(stats.sweeps) * per,
        "sweep.edges": sum(s[1] for s in stats.sweeps) * per,
        "sweep.active_frac": (
            sum(s[2] for s in known) / sum(s[3] for s in known) if known else 0.0
        ),
        "sweep.full.ns_per_edge": ns_per_edge(full),
        "sweep.partial.ns_per_edge": ns_per_edge(partial),
        "sweep.gather_s": self_s["sweep.gather"] * per,
        "sweep.message_s": self_s["sweep.message"] * per,
        "sweep.store_s": self_s["sweep.store"] * per,
        "sweep.combine_s": self_s["sweep.combine"] * per,
        "sweep.driver_s": self_s["bp.sweep"] * per,
        "schedule.update_s": total["schedule.update"] * per,
        "schedule.queue_ops": attrs[("schedule.update", "queue_ops")] * per,
        "bp.iterations": attrs[("bp.run", "iterations")] * per,
        "bp.run_overhead_s": (total["bp.run"] - total["bp.sweep"]) * per,
        "stream.apply_delta_s": total["stream.apply_delta"] * per,
        "serve.union_sweep_s": total["serve.union_sweep"] * per,
    }


def coverage(events, root: str = "bench.op") -> tuple[float, float]:
    """``(end-to-end seconds, seconds the layers account for)``: the root
    spans' duration and the self time of every span nested in them."""
    stats = self_times(rooted(events, root))
    layers = sum(v for name, v in stats.self_s.items() if name != root)
    return stats.total[root], layers


def serve_coverage(events, answered_total_s: float) -> tuple[float, float]:
    """Serve end to end is the sum of the answered queries' enqueue-to-
    answer times.  Layers: each query's admission wait, plus its batch's
    select and run spans (whose nested self times sum to them)."""
    inside = rooted(events)
    layers = sum(e.duration for e in inside if e.name == "serve.queue_wait")
    for e in inside:
        if e.name in ("serve.select", "serve.run"):
            layers += e.duration * int((e.args or {}).get("batch", 1))
    return answered_total_s, layers
