"""The simulation event loop.

:class:`Simulator` owns the virtual clock and a time-ordered callback
queue.  Everything else in the kernel (events, processes, resources) is
built from :meth:`Simulator.call_at` and :class:`~repro.sim.events.Event`.

Two execution regimes share this queue:

* the classic discrete-event regime: callbacks pop in ``(when, seq)``
  order — same-timestamp callbacks always fire in insertion order via
  the monotonic sequence tiebreak, never by object identity; and
* the fast-path regime (:mod:`repro.sim.fastpath`): a batch controller
  *warps* the clock through a window it owns and serves resource
  completions synchronously, cancelling the queue entries it absorbed
  so the loop never pops a stale wake-up behind the warped clock.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.process import Process
from repro.trace.tracer import Tracer


class ScheduledCall:
    """Cancellation handle for one queued callback.

    Cancelled entries are skipped by :meth:`Simulator.step` without
    touching the clock, so a wake-up that a fast-path batch absorbed
    in closed form can never drag the loop backwards in time.
    """

    __slots__ = ("when", "seq", "cancelled")

    def __init__(self, when: float, seq: int = -1):
        #: Absolute fire time the entry was queued at (after clamping).
        self.when = when
        #: Sequence number the entry was queued with — the same-time
        #: tiebreak position a coordinated fast-path drive must respect
        #: when it races this entry against a parked wake.
        self.seq = seq
        self.cancelled = False


@dataclass
class FastpathStats:
    """Engagement counters for the batched fast path.

    Every ``Simulator`` owns one (``sim.fastpath_stats``).  Tests use
    these to assert that a scenario actually took the batched lane —
    an equality test alone would pass even if the fast path silently
    never engaged.  All counters stay zero under
    ``engine="reference"``.
    """

    #: Fused solo-lane batches: one per solo run of a job, its load
    #: and every iteration up to its finish or pause, served in one
    #: process step.
    solo_batches: int = 0
    #: Simulated seconds covered by solo-lane batches.
    solo_batched_seconds: float = 0.0
    #: Coordinated drive windows (one per driver-entry pop; a window
    #: serves every consecutive parked wake that precedes the next
    #: external event).
    drive_windows: int = 0
    #: Parked wakes served by coordinated drive windows.
    wakes_served: int = 0
    #: Group engines that attached in coordinated (parked) mode.
    groups_attached: int = 0
    #: Group engines that left the batched lanes mid-run.  Always 0:
    #: every group under ``engine="fast"`` attaches for its whole
    #: life.  Kept for the perf ledger, which reads it.
    engines_deactivated: int = 0

    @property
    def engaged(self) -> bool:
        """Whether any batched lane (solo or coordinated) ever ran."""
        return self.solo_batches > 0 or self.wakes_served > 0


class Simulator:
    """A discrete-event simulator with a float-seconds clock."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[
            tuple[float, int, int, Callable[[], None],
                  ScheduledCall]] = []
        self._sequence = itertools.count()
        self._insertions = itertools.count()
        self._running = False
        #: Engagement counters for the batched fast path; all zero
        #: under ``engine="reference"``.
        self.fastpath_stats = FastpathStats()
        #: Horizon of the current :meth:`run` call (its ``until``
        #: argument), or ``None``.  Drives never serve a parked wake
        #: past this and solo batches refuse to open under it, so an
        #: ``until``-truncated run stops at exactly the same state as
        #: the reference engine.
        self.run_until: float | None = None
        #: The observability bus every kernel client reads its tracer
        #: from (:mod:`repro.trace`): ``None`` when tracing is off;
        #: runtimes install a live one when tracing is enabled.
        self.tracer: Tracer | None = None

    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    def clock(self) -> Callable[[], float]:
        """A reader of :attr:`now` that does not keep the simulator
        alive: the clock of the tracer installed as :attr:`tracer`
        (a ``lambda: sim.now`` there would make the pair a reference
        cycle).  Reading it after the simulator is gone raises."""
        simulator = weakref.ref(self)
        return lambda: simulator()._now

    # -- scheduling primitives ----------------------------------------

    def call_at(self, when: float, callback: Callable[[], None],
                sequence: int | None = None) -> ScheduledCall:
        """Run ``callback()`` at absolute time ``when``.

        Returns a :class:`ScheduledCall` accepted by :meth:`cancel`.
        ``sequence`` re-queues an entry at a previously drawn tiebreak
        position instead of drawing a fresh one — the fast path uses it
        so a parked wake keeps the exact same-time ordering it would
        have had as a live entry.
        """
        # Stated positively so that NaN fails it too.
        if not when >= self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        when = max(when, self._now)
        seq = next(self._sequence) if sequence is None else sequence
        handle = ScheduledCall(when, seq)
        # The third field keeps heap entries totally ordered even when
        # two share (when, seq) — a re-queued parked wake can coexist
        # with the cancelled driver entry that carried its sequence
        # number — without ever comparing callbacks.
        heapq.heappush(self._queue,
                       (when, seq, next(self._insertions), callback,
                        handle))
        return handle

    def call_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self._now + delay, callback)

    def cancel(self, handle: ScheduledCall | None) -> None:
        """Retract a queued callback scheduled by :meth:`call_at`.

        Idempotent; accepts ``None`` (and already-fired handles) so
        callers can cancel unconditionally.  The dead entry is skipped
        — without moving the clock — when it reaches the top of the
        queue.
        """
        if handle is not None:
            handle.cancelled = True

    def warp(self, when: float) -> None:
        """Set the clock directly (fast-path batch replay only).

        The caller owns consistency: every queue entry it could pop
        inside the warped window must have been cancelled or absorbed,
        and the clock must be restored to the batch's opening time
        before control returns to the event loop.  ``step()``'s
        monotonicity guard still applies to whatever remains queued.
        """
        self._now = float(when)

    # -- event factories ----------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "timeout") -> Event:
        """An event that triggers ``delay`` seconds from now.

        Prefer :meth:`at` for periodic work: accumulating ``now +
        delay`` across many ticks drifts, while ``t0 + k * dt`` does
        not.
        """
        ev = Event(self, name)
        self.call_in(delay, lambda: ev.succeed(value))
        return ev

    def at(self, when: float, value: Any = None,
           name: str = "at") -> Event:
        """An event that triggers at the absolute time ``when``.

        The closed-form companion of :meth:`timeout`: the k-th tick of
        a periodic process lands bitwise on ``t0 + k * dt`` instead of
        accumulating float error step by step.
        """
        ev = Event(self, name)
        self.call_at(when, lambda: ev.succeed(value))
        return ev

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        """Start a generator-based process immediately."""
        return Process(self, generator, name=name)

    # -- the loop ------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False if empty.

        Cancelled entries are discarded without advancing the clock.
        """
        while self._queue:
            when, _seq, _ins, callback, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            if when < self._now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self._now = when
            callback()
            return True
        return False

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        ``until`` may not lie before the clock (nor be NaN).  Returns
        the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if not (until is None or until >= self._now):
            raise SimulationError(
                f"run(until={until}) lies before now={self._now}")
        self._running = True
        self.run_until = until
        try:
            while True:
                when = self.peek()
                if when is None:
                    if until is not None:
                        self._now = until
                    break
                if until is not None and when > until:
                    self._now = until
                    break
                self.step()
        finally:
            self._running = False
            self.run_until = None
        return self._now

    def peek(self) -> float | None:
        """Time of the next live callback, or None if the queue is empty.

        Cancelled entries at the head are dropped on the way.
        """
        entry = self.peek_entry()
        return None if entry is None else entry[0]

    def peek_entry(self) -> tuple[float, int] | None:
        """``(when, seq)`` of the next live callback, or ``None``.

        Cancelled entries at the head are dropped on the way.  The
        coordinated fast path compares this key against its earliest
        parked wake to decide whether an external event must run
        before the next batched step.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[4].cancelled:
                heapq.heappop(queue)
                continue
            return (head[0], head[1])
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.3f} pending={len(self._queue)}>"
