"""The trace event bus and metrics registry.

Design constraints, in order:

1. **Zero cost when off.**  Instrumented components hold ``None``
   instead of a tracer, so the gate is a single ``is not None`` check
   and nothing allocates.
2. **Clock-agnostic.**  The tracer timestamps events through a clock
   *callable*: the cluster simulator passes its virtual ``now``, the
   thread-based local runtime passes ``time.perf_counter``.  The trace
   layer therefore never imports the simulator (no dependency cycle).
3. **Chrome-trace-shaped.**  Events carry a :class:`Track` — a
   (process, thread) pair — so the exporter can render machine sets as
   Perfetto "processes" with per-job CPU/NET/DISK lanes as "threads".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import TraceError

#: Timestamp source: seconds as float, monotone non-decreasing.
Clock = Callable[[], float]


@dataclass(frozen=True)
class TraceConfig:
    """Switchboard for the observability layer (off by default)."""

    #: Master switch: nothing is recorded (and nothing is paid) when off.
    enabled: bool = False
    #: Hard cap on recorded span+instant events; beyond it new events
    #: are counted in :attr:`Tracer.dropped_events` instead of stored,
    #: so an unexpectedly long run cannot exhaust memory.
    max_events: int = 2_000_000

    def __post_init__(self):
        # Stated positively so that NaN fails too; ``repro.config``
        # imports this module, so its rule helper is out of reach.
        if not self.max_events >= 0:
            raise ValueError(f"max_events must be >= 0, got "
                             f"{self.max_events!r}")


@dataclass(frozen=True)
class Track:
    """A (process, thread) slot in the trace, pre-interned to ints."""

    pid: int
    tid: int


@dataclass
class Span:
    """A closed duration event on one track."""

    track: Track
    name: str
    cat: str
    start: float
    end: float
    args: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class InstantEvent:
    """A point-in-time event (scheduler decision, fault, trigger...)."""

    name: str
    cat: str
    time: float
    track: Track | None = None
    args: dict[str, Any] | None = None


@dataclass
class SpanHandle:
    """An open span returned by :meth:`Tracer.begin`."""

    track: Track
    name: str
    cat: str
    start: float
    args: dict[str, Any] | None = None
    closed: bool = False


class Counter:
    """A monotonically accumulating named value."""

    __slots__ = ("name", "value", "samples", "_clock")

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self.value = 0.0
        #: ``(time, value)`` after each update.
        self.samples: list[tuple[float, float]] = []
        self._clock = clock

    def add(self, delta: float = 1.0) -> None:
        self.value += delta
        self.samples.append((self._clock(), self.value))


class Gauge:
    """A named value that moves both ways (queue depth, alpha, ...)."""

    __slots__ = ("name", "value", "samples", "_clock")

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self.value = 0.0
        self.samples: list[tuple[float, float]] = []
        self._clock = clock

    def set(self, value: float) -> None:
        self.set_at(self._clock(), value)

    def set_at(self, when: float, value: float) -> None:
        """:meth:`set`, stamped ``when`` instead of the clock's now (for
        series derived after the fact)."""
        self.value = float(value)
        self.samples.append((when, self.value))


class MetricsRegistry:
    """Named counters and gauges, owned by a tracer.

    The registry is keyed by name only — deliberately *not* by group or
    placement epoch — so per-job counters keep accumulating across
    migrations and regroupings.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name, self._clock)
            self.counters[name] = counter
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = Gauge(name, self._clock)
            self.gauges[name] = gauge
        return gauge

    def total(self, suffix: str) -> float:
        """Sum of all counters whose name ends with ``suffix`` (e.g.
        ``.steps`` summed over every job)."""
        return sum(counter.value
                   for name, counter in self.counters.items()
                   if name.endswith(suffix))


class Tracer:
    """Records spans, instants, and metrics against one clock."""

    def __init__(self, clock: Clock,
                 config: TraceConfig | None = None):
        self.config = config if config is not None \
            else TraceConfig(enabled=True)
        self._clock = clock
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.registry = MetricsRegistry(clock)
        self.dropped_events = 0
        self._open_spans = 0
        #: process name -> pid; (pid, thread name) -> tid.
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}
        self.process_names: dict[int, str] = {}
        self.process_sort: dict[int, int] = {}
        self.thread_names: dict[tuple[int, int], str] = {}
        self.thread_sort: dict[tuple[int, int], int] = {}

    # -- capacity -------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (0 after a clean run)."""
        return self._open_spans

    @property
    def n_events(self) -> int:
        return len(self.spans) + len(self.instants)

    def _has_room(self) -> bool:
        if self.n_events < self.config.max_events:
            return True
        self.dropped_events += 1
        return False

    # -- track interning ------------------------------------------------

    def track(self, process: str, thread: str,
              process_sort: int | None = None,
              thread_sort: int | None = None) -> Track:
        """Intern a (process, thread) label pair to a :class:`Track`.

        Sort hints control Perfetto's display order; they are applied
        on first use of a label and ignored afterwards.
        """
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self.process_names[pid] = process
            if process_sort is not None:
                self.process_sort[pid] = process_sort
        tid = self._tids.get((pid, thread))
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[(pid, thread)] = tid
            self.thread_names[(pid, tid)] = thread
            if thread_sort is not None:
                self.thread_sort[(pid, tid)] = thread_sort
        return Track(pid, tid)

    # -- span events -----------------------------------------------------

    def begin(self, track: Track, name: str, cat: str = "",
              args: dict[str, Any] | None = None) -> SpanHandle:
        """Open a span at the current clock time."""
        self._open_spans += 1
        return SpanHandle(track=track, name=name, cat=cat,
                          start=self._clock(), args=args)

    def end(self, handle: SpanHandle,
            args: dict[str, Any] | None = None) -> Span | None:
        """Close an open span at the current clock time."""
        if handle.closed:
            raise TraceError(f"span {handle.name!r} already closed")
        handle.closed = True
        self._open_spans -= 1
        merged = handle.args
        if args:
            merged = dict(merged or {})
            merged.update(args)
        return self._record_span(handle.track, handle.name, handle.cat,
                                 handle.start, self._clock(), merged)

    def complete(self, track: Track, name: str, start: float,
                 end: float | None = None, cat: str = "") -> Span | None:
        """Record a span whose boundaries are already known."""
        return self._record_span(track, name, cat, start,
                                 self._clock() if end is None else end,
                                 None)

    def _record_span(self, track: Track, name: str, cat: str,
                     start: float, end: float,
                     args: dict[str, Any] | None) -> Span | None:
        if end < start:
            raise TraceError(
                f"span {name!r} ends before it starts "
                f"({end} < {start})")
        if not self._has_room():
            return None
        span = Span(track=track, name=name, cat=cat, start=start,
                    end=end, args=args)
        self.spans.append(span)
        return span

    # -- instant events ---------------------------------------------------

    def instant(self, name: str, cat: str = "",
                track: Track | None = None,
                args: dict[str, Any] | None = None) -> None:
        if not self._has_room():
            return
        self.instants.append(InstantEvent(
            name=name, cat=cat, time=self._clock(), track=track,
            args=args))

    # -- metrics ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)
