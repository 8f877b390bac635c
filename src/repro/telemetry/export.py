"""Trace exporters: Chrome trace-event JSON and a text summary table.

The Chrome format (loadable in Perfetto / ``chrome://tracing``) maps the
tracer's lanes onto processes and threads:

* the ``host`` process carries every real OS thread (wall clock domain),
  one thread row per thread name;
* each modeled lane (``cuda:0``, ``interconnect:0``, …) becomes its own
  process with its sublanes (``kernels``, ``pcie``) as thread rows, so
  simulated devices render as separate swimlane groups next to the host.

Only complete (``ph: "X"``) and metadata (``ph: "M"``) events are
emitted; timestamps are microseconds, sorted ascending —
:func:`validate_chrome_trace` enforces exactly that schema and is what
the tests and the CI traced-smoke step run against emitted files.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable

from repro.telemetry.tracer import SpanEvent, Tracer

__all__ = [
    "chrome_trace",
    "summary_table",
    "trace_lanes",
    "validate_chrome_trace",
    "write_chrome_trace",
]


def chrome_trace(events: Iterable[SpanEvent] | Tracer) -> dict:
    """Render events as a Chrome trace-event JSON object (dict).

    Lane names map deterministically to integer pids/tids (required by
    Perfetto's grouping); ``process_name`` / ``thread_name`` metadata
    events carry the human-readable labels.
    """
    if isinstance(events, Tracer):
        events = events.events
    events = list(events)

    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    trace_events: list[dict] = []

    def pid_of(process: str) -> int:
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": process},
                }
            )
        return pid

    def tid_of(process: str, thread: str) -> int:
        key = (process, thread)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid_of(process),
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": thread},
                }
            )
        return tid

    spans: list[dict] = []
    # host lane first so its pid is stable across traces
    for event in sorted(events, key=lambda e: (e.domain != "wall", e.start)):
        entry = {
            "ph": "X",
            "name": event.name,
            "cat": event.cat or event.domain,
            "pid": pid_of(event.process),
            "tid": tid_of(event.process, event.thread),
            "ts": round(event.start * 1e6, 3),
            "dur": round(max(event.duration, 0.0) * 1e6, 3),
        }
        if event.args:
            entry["args"] = {k: _jsonable(v) for k, v in event.args.items()}
        spans.append(entry)

    spans.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": trace_events + spans,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.telemetry"},
    }


def _jsonable(value):
    """Coerce span attributes to JSON scalars (numpy ints/floats included)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    try:
        f = float(value)
    except (TypeError, ValueError):
        return str(value)
    return int(f) if f.is_integer() and abs(f) < 2**53 else f


def write_chrome_trace(events: Iterable[SpanEvent] | Tracer, path) -> Path:
    """Write the Chrome trace JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(events)), encoding="utf-8")
    return path


def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema-check one exported trace; returns a list of problems
    (empty = valid).  Enforced invariants:

    * top-level ``traceEvents`` list; every event has ``ph``/``pid``/
      ``tid``/``ts``/``name``;
    * only complete (``X``) and metadata (``M``) phases — no unmatched
      ``B``/``E`` pairs can exist by construction;
    * ``X`` events carry ``dur >= 0`` and ``ts >= 0``, sorted ascending;
    * every pid/tid referenced by an ``X`` event has a ``process_name``
      / ``thread_name`` metadata record.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]

    named_pids: set[int] = set()
    named_tids: set[tuple[int, int]] = set()
    last_ts = None
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "pid", "tid", "ts", "name"):
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "process_name":
                named_pids.add(event.get("pid"))
            elif event.get("name") == "thread_name":
                named_tids.add((event.get("pid"), event.get("tid")))
            continue
        if ph != "X":
            problems.append(f"event {i}: phase {ph!r} (only X/M are emitted)")
            continue
        ts = event.get("ts", -1)
        dur = event.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"event {i}: X event needs dur >= 0, got {dur!r}")
        if last_ts is not None and isinstance(ts, (int, float)) and ts < last_ts:
            problems.append(f"event {i}: timestamps not sorted ({ts} < {last_ts})")
        if isinstance(ts, (int, float)):
            last_ts = ts
        if event.get("pid") not in named_pids:
            problems.append(f"event {i}: pid {event.get('pid')} has no process_name")
        if (event.get("pid"), event.get("tid")) not in named_tids:
            problems.append(f"event {i}: tid {event.get('tid')} has no thread_name")
    return problems


def trace_lanes(trace: dict) -> dict[str, list[str]]:
    """``{process name: [thread names]}`` of one exported trace."""
    process_names: dict[int, str] = {}
    threads: dict[int, list[str]] = defaultdict(list)
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "M":
            continue
        if event.get("name") == "process_name":
            process_names[event["pid"]] = event["args"]["name"]
        elif event.get("name") == "thread_name":
            threads[event["pid"]].append(event["args"]["name"])
    return {
        name: threads.get(pid, []) for pid, name in sorted(process_names.items())
    }


def summary_table(events: Iterable[SpanEvent] | Tracer) -> str:
    """Aggregate spans by (lane, name) into an aligned text table."""
    if isinstance(events, Tracer):
        events = events.events
    groups: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    for event in events:
        groups[(event.domain, event.process, event.name)].append(event.duration)

    headers = ("lane", "span", "domain", "count", "total_ms", "mean_ms", "max_ms")
    rows = []
    for (domain, process, name), durs in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], -sum(kv[1]))
    ):
        total = sum(durs)
        rows.append(
            (
                process,
                name,
                domain,
                str(len(durs)),
                f"{total * 1e3:.3f}",
                f"{total / len(durs) * 1e3:.3f}",
                f"{max(durs) * 1e3:.3f}",
            )
        )
    if not rows:
        return "(no spans recorded)"
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)
