"""Structured tracing and metrics (`repro.trace`).

A low-overhead observability layer for the reproduction: a
:class:`Tracer` records *span* events (COMP/COMM subtask execution,
reload stalls, barrier waits, checkpoint pauses) and *instant* events
(scheduler decisions, regroup triggers, fault injections) against any
monotone clock — the simulated clock for cluster runs, the wall clock
for the thread-based local runtime — plus a named counter/gauge
:class:`MetricsRegistry`.

Tracing is disabled by default (:class:`TraceConfig`); when off,
components hold ``None`` instead of a tracer and every instrumentation
site skips entirely, so the hot simulation paths pay nothing.

Exporters render a recorded trace as Chrome-trace/Perfetto JSON
(machine sets as "processes", per-job CPU/NET/DISK lanes as "threads")
and the counter registry as CSV.
"""

from repro.trace.export import (
    chrome_trace_events,
    counter_rows,
    write_chrome_trace,
)
from repro.trace.tracer import (
    Counter,
    Gauge,
    InstantEvent,
    MetricsRegistry,
    Span,
    SpanHandle,
    TraceConfig,
    Tracer,
    Track,
)

__all__ = [
    "Counter",
    "Gauge",
    "InstantEvent",
    "MetricsRegistry",
    "Span",
    "SpanHandle",
    "TraceConfig",
    "Tracer",
    "Track",
    "chrome_trace_events",
    "counter_rows",
    "write_chrome_trace",
]
