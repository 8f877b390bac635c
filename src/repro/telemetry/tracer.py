"""Span-based tracing with two clock domains (DESIGN.md §11).

A :class:`Tracer` records nested, thread-aware spans around real Python
execution (wall-clock domain, one lane per OS thread) and lets simulated
hardware publish *modeled*-time spans on virtual lanes (one lane per
simulated device or interconnect), so a single trace shows the simulated
CUDA kernels and PCIe transfers next to the CPU work that scheduled
them.

The instrumentation contract is strict:

* **zero-cost when disabled** — the default global tracer is a
  :class:`NullTracer` whose ``span()`` returns one shared, falsy no-op
  handle: no allocation, no clock read, no lock.  Hot paths guard
  attribute construction with ``if sp:`` so a disabled run does not even
  build the argument dicts;
* **observation only** — tracing reads timestamps and already-computed
  statistics; it never touches beliefs, messages, schedules or RNG
  state, which is what keeps traced runs bit-exact with untraced ones
  (the same invariant the race detector established).

Wall spans nest per thread (Chrome ``X`` events stack by enclosure);
modeled lanes are flat sequences of complete events whose timestamps are
``lane anchor + modeled seconds`` — the anchor is the wall offset at
lane creation, so a device's virtual timeline starts where the host
actually created it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

#: the wall-clock process lane (Chrome trace "process") for real threads
HOST = "host"


@dataclass(frozen=True)
class SpanEvent:
    """One completed span, in tracer-epoch seconds.

    ``process`` / ``thread`` name the lane: ``("host", "<thread name>")``
    for wall-clock spans, ``("<device>", "<sublane>")`` for modeled ones.
    """

    name: str
    cat: str
    start: float
    duration: float
    process: str
    thread: str
    domain: str = "wall"  # "wall" | "modeled"
    args: dict | None = None


class Span:
    """Context-manager handle for one in-flight wall-clock span.

    Truthy (the null span is falsy), so instrumentation sites can guard
    expensive attribute construction with ``if sp: sp.set(...)``.
    """

    __slots__ = ("_tracer", "name", "cat", "_start", "_args")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict | None):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self._args = args
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (rendered as Chrome ``args``)."""
        if self._args is None:
            self._args = attrs
        else:
            self._args.update(attrs)
        return self

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        end = tracer._clock()
        tracer._record(
            SpanEvent(
                name=self.name,
                cat=self.cat,
                start=self._start - tracer._t0,
                duration=end - self._start,
                process=HOST,
                thread=threading.current_thread().name,
                domain="wall",
                args=self._args,
            )
        )


class _NullSpan:
    """The shared no-op span handle: falsy, inert, allocation-free."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class ModeledLane:
    """A virtual timeline for simulated hardware (modeled clock domain).

    ``anchor`` is the tracer-epoch wall offset the lane's modeled zero
    maps to, captured at creation: the simulated device's timeline begins
    where the host created it.  ``emit`` timestamps are *modeled seconds*
    on the lane's own clock.
    """

    __slots__ = ("_tracer", "process", "anchor")

    def __init__(self, tracer: "Tracer", process: str, anchor: float):
        self._tracer = tracer
        self.process = process
        self.anchor = anchor

    def __bool__(self) -> bool:
        return True

    def reanchor(self) -> None:
        """Re-pin the lane's modeled zero to the current wall offset.

        Called when the simulated device's clock is reset, so events from
        the new epoch keep landing after the old ones in trace order.
        """
        clock = self._tracer._clock
        self.anchor = clock() - self._tracer._t0

    def emit(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        *,
        thread: str = "modeled",
        cat: str = "modeled",
        args: dict | None = None,
    ) -> None:
        """Record one modeled-time complete event on this lane."""
        self._tracer._record(
            SpanEvent(
                name=name,
                cat=cat,
                start=self.anchor + start_s,
                duration=duration_s,
                process=self.process,
                thread=thread,
                domain="modeled",
                args=args,
            )
        )


class _NullLane:
    """No-op modeled lane returned by the disabled tracer."""

    __slots__ = ()
    process = ""
    anchor = 0.0

    def __bool__(self) -> bool:
        return False

    def reanchor(self) -> None:
        pass

    def emit(self, name, start_s, duration_s, *, thread="modeled", cat="modeled",
             args=None) -> None:
        pass


NULL_LANE = _NullLane()


class Tracer:
    """Collects :class:`SpanEvent` records from every thread of a run."""

    enabled = True

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._events: list[SpanEvent] = []
        self._lane_counts: dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, *, cat: str = "", args: dict | None = None) -> Span:
        """A wall-clock span on the current thread's lane (context manager)."""
        return Span(self, name, cat, args)

    def complete(
        self,
        name: str,
        duration_s: float,
        *,
        cat: str = "",
        end_s: float | None = None,
        args: dict | None = None,
    ) -> None:
        """Record a wall span retroactively: it *ended* ``end_s`` seconds
        into the trace (default: now) and lasted ``duration_s``.  Used
        where only the duration was measured (e.g. admission queue wait
        timed on a different clock)."""
        if end_s is None:
            end_s = self._clock() - self._t0
        duration_s = max(float(duration_s), 0.0)
        self._record(
            SpanEvent(
                name=name,
                cat=cat,
                start=max(end_s - duration_s, 0.0),
                duration=duration_s,
                process=HOST,
                thread=threading.current_thread().name,
                domain="wall",
                args=args,
            )
        )

    def instant(self, name: str, *, cat: str = "", args: dict | None = None) -> None:
        """Record a zero-duration marker on the current thread's lane."""
        self._record(
            SpanEvent(
                name=name,
                cat=cat,
                start=self._clock() - self._t0,
                duration=0.0,
                process=HOST,
                thread=threading.current_thread().name,
                domain="wall",
                args=args,
            )
        )

    # -- modeled lanes -------------------------------------------------
    def lane(self, kind: str, *, label: str = "") -> ModeledLane:
        """Create a fresh modeled lane, auto-numbered per ``kind``.

        ``lane("cuda")`` yields processes ``cuda:0``, ``cuda:1``, … on
        successive calls; ``label`` is appended for readability
        (``"cuda:0 (gtx1070)"``).  The lane is anchored at the current
        wall offset.
        """
        with self._lock:
            index = self._lane_counts.get(kind, 0)
            self._lane_counts[kind] = index + 1
        process = f"{kind}:{index}"
        if label:
            process = f"{process} ({label})"
        return ModeledLane(self, process, anchor=self._clock() - self._t0)

    # -- reading -------------------------------------------------------
    @property
    def events(self) -> list[SpanEvent]:
        """Snapshot of the recorded events (chronological per thread)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullTracer:
    """The disabled tracer: every operation is an inert no-op.

    All methods return shared singletons — tracing a disabled run
    allocates nothing and reads no clock.
    """

    enabled = False

    def span(self, name: str, *, cat: str = "", args: dict | None = None) -> _NullSpan:
        return NULL_SPAN

    def complete(self, name, duration_s, *, cat="", end_s=None, args=None) -> None:
        pass

    def instant(self, name, *, cat="", args=None) -> None:
        pass

    def lane(self, kind: str, *, label: str = "") -> _NullLane:
        return NULL_LANE

    @property
    def events(self) -> list:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()

#: the process-wide active tracer; worker threads (the serve worker) read
#: it through :func:`get_tracer`, so enabling tracing on the main thread
#: covers them too
_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (a :class:`NullTracer` unless one was installed)."""
    return _active


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` process-wide; ``None`` restores the null tracer."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER
    return _active


@contextmanager
def use_tracer(tracer: Tracer | NullTracer | None):
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    try:
        yield _active
    finally:
        _active = previous
