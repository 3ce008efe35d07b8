"""Trace exporters: Chrome-trace/Perfetto JSON and counter CSV.

The JSON follows the Trace Event Format (the ``traceEvents`` array
understood by ``chrome://tracing`` and https://ui.perfetto.dev): span
events as ``"X"`` (complete) records, instants as ``"i"``, counters as
``"C"`` time series, with ``"M"`` metadata naming the processes
(machine sets / subsystems) and threads (per-job CPU/NET/DISK lanes).
Timestamps are microseconds, converted from the tracer's float-seconds
clock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: Seconds (tracer clock) to microseconds (trace event format).
_US = 1e6

#: Dedicated metadata process for registry counter lanes.
_METRICS_PROCESS = "metrics"


def chrome_trace_events(tracer) -> list[dict[str, Any]]:
    """Render a tracer's recorded events as trace-event dicts.

    Metadata records lead; payload records follow sorted by timestamp,
    so consumers that require monotone ``ts`` streams are satisfied.
    """
    meta: list[dict[str, Any]] = []
    for pid, name in tracer.process_names.items():
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "tid": 0, "args": {"name": name}})
    for pid, sort_index in tracer.process_sort.items():
        meta.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                     "tid": 0, "args": {"sort_index": sort_index}})
    for (pid, tid), name in tracer.thread_names.items():
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "args": {"name": name}})
    for (pid, tid), sort_index in tracer.thread_sort.items():
        meta.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                     "tid": tid, "args": {"sort_index": sort_index}})

    payload: list[dict[str, Any]] = []
    for span in tracer.spans:
        event = {"ph": "X", "name": span.name,
                 "ts": span.start * _US,
                 "dur": max(0.0, span.duration) * _US,
                 "pid": span.track.pid, "tid": span.track.tid}
        if span.cat:
            event["cat"] = span.cat
        if span.args:
            event["args"] = span.args
        payload.append(event)
    for instant in tracer.instants:
        event = {"ph": "i", "name": instant.name,
                 "ts": instant.time * _US}
        if instant.track is not None:
            event["pid"] = instant.track.pid
            event["tid"] = instant.track.tid
            event["s"] = "t"
        else:
            event["pid"] = 0
            event["tid"] = 0
            event["s"] = "g"  # global scope: a full-height marker
        if instant.cat:
            event["cat"] = instant.cat
        if instant.args:
            event["args"] = instant.args
        payload.append(event)

    counter_pid = _counter_pid(tracer)
    if counter_pid is not None:
        meta.append({"ph": "M", "name": "process_name",
                     "pid": counter_pid, "tid": 0,
                     "args": {"name": _METRICS_PROCESS}})
        for metric in list(tracer.registry.counters.values()) + \
                list(tracer.registry.gauges.values()):
            for when, value in metric.samples:
                payload.append({"ph": "C", "name": metric.name,
                                "ts": when * _US, "pid": counter_pid,
                                "tid": 0,
                                "args": {"value": value}})

    payload.sort(key=lambda event: event["ts"])
    return meta + payload


def _counter_pid(tracer) -> "int | None":
    """A pid for counter lanes, or None when there are no samples."""
    has_samples = any(
        metric.samples
        for metric in list(tracer.registry.counters.values())
        + list(tracer.registry.gauges.values()))
    if not has_samples:
        return None
    return max(tracer.process_names, default=0) + 1


def write_chrome_trace(path: "str | Path", tracer) -> Path:
    """Write the Perfetto-loadable JSON file; returns the path."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(tracer),
        "otherData": {
            "clock": "simulated seconds x 1e6 unless stated otherwise",
            "droppedEvents": tracer.dropped_events,
        },
    }
    with target.open("w") as handle:
        json.dump(document, handle)
    return target


def counter_rows(tracer) -> list[tuple[str, str, str]]:
    """``(kind, name, value)`` rows for the registry, name-sorted."""
    rows = [("counter", name, f"{counter.value:.6g}")
            for name, counter in tracer.registry.counters.items()]
    rows += [("gauge", name, f"{gauge.value:.6g}")
             for name, gauge in tracer.registry.gauges.items()]
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows
