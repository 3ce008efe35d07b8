"""Rate-based shared resources.

All resource contention in the simulated cluster is expressed through
:class:`RateResource`: tasks carry an amount of *work* (seconds of
service at rate 1.0) and a :data:`RatePolicy` decides, from a task's
position in the FIFO queue, at what rate it is currently served.

Three policies cover every resource in the paper:

* :func:`serial` — one task at a time.  Models the CPU of a machine /
  job group: "a single CPU subtask is executed at a time as a single
  CPU subtask usually uses almost all of the provided CPU resources"
  (§IV-A).
* :func:`primary_secondary` — full rate for the head-of-line task plus a
  reduced-rate secondary.  Models the network: "we schedule a secondary
  network subtask, while yielding the network resources to the primary
  network subtask whenever a contention occurs" (§IV-A).
* :func:`processor_sharing` — equal sharing among all active tasks, with
  an optional interference penalty.  Models the *naive co-location*
  baseline (uncoordinated contention) and shared disk bandwidth.

A queued task is its own completion event: :meth:`RateResource.submit`
returns it, the waiting process yields it, and the wake that finishes
it triggers it with a :class:`ServiceRecord` — one object per subtask.
Each wake re-plans the next completion: the reference engine queues it
as a heap entry (``_reschedule``); a resource parked under a fast-path
owner (:mod:`repro.sim.fastpath`) holds it as ``(when, seq)``
(``_repark``), replaying the same arithmetic in the same order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ResourceError, SimulationError
from repro.sim.events import Event
from repro.sim.simulator import Simulator

_EPSILON = 1e-9

#: Maps the number of queued tasks to per-position service rates.
#: Positions beyond the returned sequence receive rate 0 (waiting).
RatePolicy = Callable[[int], Sequence[float]]


def serial() -> RatePolicy:
    """Only the head-of-line task runs, at full rate."""
    def policy(n_active: int) -> Sequence[float]:
        return (1.0,)
    return policy


def primary_secondary(secondary_rate: float = 0.4) -> RatePolicy:
    """Head-of-line task at full rate; the next task at a reduced rate.

    ``secondary_rate`` is the fraction of the resource the secondary
    task scavenges from the primary's idle gaps.
    """
    if not 0.0 <= secondary_rate <= 1.0:
        raise ResourceError(f"secondary_rate {secondary_rate} not in [0,1]")

    def policy(n_active: int) -> Sequence[float]:
        return (1.0, secondary_rate)
    return policy


def processor_sharing(interference: float = 0.0,
                      max_concurrent: int | None = None) -> RatePolicy:
    """All (or the first ``max_concurrent``) tasks share the resource.

    With ``k`` concurrent tasks each receives ``eff(k) / k`` where
    ``eff(k) = 1 / (1 + interference * (k - 1))`` — i.e. total delivered
    throughput *degrades* with concurrency.  ``interference=0`` is ideal
    processor sharing.
    """
    if interference < 0:
        raise ResourceError(f"interference {interference} must be >= 0")
    if not (max_concurrent is None or max_concurrent >= 1):
        # Zero slots would serve no task ever: every task would wait.
        raise ResourceError(
            f"max_concurrent must be None or >= 1, got {max_concurrent}")

    def policy(n_active: int) -> Sequence[float]:
        k = n_active if max_concurrent is None else min(n_active,
                                                        max_concurrent)
        if k <= 0:
            return ()
        efficiency = 1.0 / (1.0 + interference * (k - 1))
        return (efficiency / k,) * k
    return policy


@dataclass(slots=True)
class ServiceRecord:
    """Completion record delivered as the value of a task's event."""

    submitted_at: float
    started_at: float
    finished_at: float
    work: float


class _Task(Event):
    """A queued subtask, and its own completion event.

    :meth:`RateResource.submit` returns the task itself: the waiting
    process yields it, :meth:`RateResource.cancel` finds it by identity,
    and the completing wake triggers it with a :class:`ServiceRecord`.
    """

    __slots__ = ("work_remaining", "work_total", "submitted_at",
                 "started_at")

    def __init__(self, sim: Simulator, name: str, work: float,
                 submitted_at: float):
        # Event.__init__'s fields, set here so that a subtask costs one
        # allocation and one __init__ call on the hot path.
        self.sim = sim
        self.name = name
        self._callbacks = []
        self._triggered = False
        self._ok = False
        self._value = None
        self.work_remaining = work
        self.work_total = work
        self.submitted_at = submitted_at
        self.started_at: float | None = None


@dataclass(slots=True)
class BusySegment:
    """A constant-utilization interval of the resource."""

    start: float
    end: float
    level: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def level_samples(
        segments: Sequence[BusySegment]) -> list[tuple[float, float]]:
    """A busy-segment ledger as ``(time, level)`` step samples.

    One sample where a segment starts at a level different from the
    previous sample, and a ``0.0`` sample at each idle gap and at the
    end — the resource's delivered-service level as a step function.
    """
    samples: list[tuple[float, float]] = []
    level = 0.0
    end: float | None = None
    for segment in segments:
        if end is not None and segment.start > end:
            samples.append((end, 0.0))
            level = 0.0
        if segment.level != level:
            level = segment.level
            samples.append((segment.start, level))
        end = segment.end
    if end is not None:
        samples.append((end, 0.0))
    return samples


@dataclass(frozen=True)
class ResourceAudit:
    """Work-conservation snapshot of one resource (repro.check).

    Taken by :meth:`RateResource.audit`; the invariant checker asserts
    ``work_served == work_submitted - work_discarded - queued_work``
    (no service is ever lost or invented) and bounds ``busy_seconds``
    by the served work.
    """

    name: str
    at: float
    busy_seconds: float
    work_submitted: float
    work_served: float
    work_discarded: float
    queued_work: float
    queue_length: int


class RateResource:
    """A shared resource serving FIFO-ordered tasks at policy rates."""

    def __init__(self, sim: Simulator, policy: RatePolicy, name: str = "",
                 record_segments: bool = True):
        self.sim = sim
        self.name = name
        # Event name shared by every task of this resource; building it
        # once keeps the per-submit cost to an attribute load.
        self._task_name = f"{name}:task"
        self._policy = policy
        self._tasks: list[_Task] = []
        self._last_update = sim.now
        self._wake_generation = 0
        #: Handle of the queued wake-up (event-driven mode), so a
        #: superseded or purged wake is retracted instead of left to
        #: rot in the event queue.
        self._wake_handle = None
        #: Fast-path owner (a ``GroupBatchEngine``,
        #: :mod:`repro.sim.fastpath`).  While set the resource is
        #: *parked*: wake-ups are not queued but held as ``(when, seq)``
        #: below, and the owner is notified on every park change so it
        #: can keep one real "driver" event at the group's earliest
        #: parked wake.
        self._wake_owner = None
        self._pending_wake_at: float | None = None
        #: Tiebreak sequence number of the parked wake, drawn at exactly
        #: the point the reference engine's ``call_at`` would have
        #: drawn it.
        self._pending_wake_seq: int | None = None
        # Per-queue-length (rates, level, active indices) memo for the
        # parked branch of _advance, _repark and serve_solo.  Policies
        # are pure functions of the queue length, so the cached tuples
        # are float-identical to what current_rates() would rebuild at
        # every wake.
        self._rates_cache: dict[
            int, tuple[tuple[float, ...], float, tuple[int, ...]]] = {}
        self._record_segments = record_segments
        #: Utilization history: one entry per constant-rate interval
        #: (also the source of the traced level gauges, see
        #: :func:`level_samples`).
        self.segments: list[BusySegment] = []
        # Segments below this index are sealed: close_segments() has
        # published them (exporters/recorders take shallow copies), so
        # _append_segment must never extend them in place.
        self._segment_seal = 0
        #: Aggregate ``∫ level dt`` — busy seconds, capped at capacity.
        self.busy_seconds = 0.0
        #: Work-conservation ledger (see :class:`ResourceAudit`).
        self.work_submitted = 0.0
        self.work_served = 0.0
        self.work_discarded = 0.0

    # -- public API ----------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._tasks)

    def submit(self, work: float) -> Event:
        """Enqueue ``work`` seconds of service; returns the queued task,
        which is its own completion event.

        The event value is a :class:`ServiceRecord`.
        """
        if not 0.0 <= work < math.inf:
            raise ResourceError(
                f"work {work} on {self.name!r} must be finite and >= 0")
        sim = self.sim
        self._advance()
        task = _Task(sim, self._task_name, work, sim._now)
        self.work_submitted += work
        self._tasks.append(task)
        # Zero-work tasks are popped as already-finished by the
        # rescheduling pass below.
        if self._wake_owner is not None:
            self._repark()
        else:
            self._reschedule()
        return task

    def cancel(self, event: Event) -> bool:
        """Remove a pending task: ``event`` is what :meth:`submit`
        returned.

        Returns True if the task was found and removed; an event this
        resource did not issue, or one already completed, is not found.
        The event is *not* triggered; the caller owns it.
        """
        self._advance()
        for index, task in enumerate(self._tasks):
            if task is event:
                self.work_discarded += max(task.work_remaining, 0.0)
                del self._tasks[index]
                if self._wake_owner is not None:
                    self._repark()
                else:
                    self._reschedule()
                return True
        return False

    def purge(self) -> float:
        """Drop every queued task without completing it.

        Used when a group crashes: its processes are killed, so their
        pending resource tasks must not keep receiving service.  The
        abandoned work is booked as discarded; the tasks' events are not
        triggered.  Returns the total work dropped.
        """
        self._advance()
        dropped = sum(max(t.work_remaining, 0.0) for t in self._tasks)
        self._tasks.clear()
        self.work_discarded += dropped
        # Invalidate any scheduled wake-up for the old queue.  The
        # generation bump alone would neutralize a stale wake, but the
        # dead queue entry would still be popped later — retract it so
        # a fault firing exactly on a step boundary leaves no trace.
        self._wake_generation += 1
        self.sim.cancel(self._wake_handle)
        self._wake_handle = None
        self._pending_wake_at = None
        self._pending_wake_seq = None
        if self._wake_owner is not None:
            self._wake_owner.park_changed(self)
        return dropped

    def audit(self) -> ResourceAudit:
        """Snapshot the work-conservation ledger as of ``sim.now``."""
        self._advance()
        return ResourceAudit(
            name=self.name,
            at=self.sim.now,
            busy_seconds=self.busy_seconds,
            work_submitted=self.work_submitted,
            work_served=self.work_served,
            work_discarded=self.work_discarded,
            queued_work=sum(max(t.work_remaining, 0.0)
                            for t in self._tasks),
            queue_length=len(self._tasks))

    def current_rates(self) -> list[float]:
        """Service rates per queued task, in queue order (0 = waiting)."""
        rates = list(self._policy(len(self._tasks)))
        result = []
        for index in range(len(self._tasks)):
            result.append(rates[index] if index < len(rates) else 0.0)
        return result

    def close_segments(self) -> None:
        """Flush the in-progress utilization segment up to ``sim.now``.

        Idempotent, and safe to call from multiple consumers (checker +
        exporter): the flushed segments are *sealed*, so later service
        starts a fresh :class:`BusySegment` instead of mutating a
        segment a caller may have already copied by reference.
        """
        self._advance()
        self._segment_seal = len(self.segments)

    # -- internals -----------------------------------------------------

    def _advance(self) -> None:
        """Account for service delivered since the last update."""
        now = self.sim._now
        dt = now - self._last_update
        if dt <= _EPSILON:
            self._last_update = now
            return
        if self._wake_owner is not None:
            # Coordinated mode: replay the same arithmetic from the
            # per-queue-length memo (identical values in identical
            # order — see _rates_for) without rebuilding rate lists.
            tasks = self._tasks
            cached = self._rates_cache.get(len(tasks))
            if cached is None:
                cached = self._rates_for(len(tasks))
            rates, level, active = cached
            last_update = self._last_update
            if level > _EPSILON:
                self.busy_seconds += level * dt
                if self._record_segments:
                    self._append_segment(last_update, now, level)
            for index in active:
                task = tasks[index]
                if task.started_at is None:
                    task.started_at = last_update
                delivered = min(task.work_remaining, rates[index] * dt)
                task.work_remaining -= delivered
                self.work_served += delivered
            self._last_update = now
            return
        rates = self.current_rates()
        level = min(1.0, sum(rates))
        if level > _EPSILON:
            self.busy_seconds += level * dt
            if self._record_segments:
                self._append_segment(self._last_update, now, level)
        for task, rate in zip(self._tasks, rates, strict=True):
            if rate <= _EPSILON:
                continue
            if task.started_at is None:
                task.started_at = self._last_update
            delivered = min(task.work_remaining, rate * dt)
            task.work_remaining -= delivered
            self.work_served += delivered
        self._last_update = now

    def _append_segment(self, start: float, end: float, level: float) -> None:
        if end - start <= 0.0:
            # A zero-duration segment (a fault or seal landing exactly
            # on a step boundary) carries no service; recording it
            # would double-count the boundary instant in the
            # conservation ledger once a later segment merges onto it.
            return
        if len(self.segments) > self._segment_seal:
            last = self.segments[-1]
            if (abs(last.end - start) <= _EPSILON
                    and abs(last.level - level) <= 1e-6):
                last.end = end
                return
        self.segments.append(BusySegment(start, end, level))

    def _reschedule(self) -> None:
        """Recompute the next completion and queue a wake-up.

        The event-driven step; a parked resource runs :meth:`_repark`
        instead.
        """
        # Supersede the previously queued wake instead of leaving a
        # dead entry behind: the generation guard would ignore it, but
        # stale entries cost queue traffic.
        if self._wake_handle is not None:
            self._wake_handle.cancelled = True  # sim.cancel()
            self._wake_handle = None
        self._wake_generation += 1
        generation = self._wake_generation
        # Pop any tasks that are already done (zero-work or finished
        # exactly at the current instant).
        self._pop_finished()
        if not self._tasks:
            return
        horizon = self._next_horizon()
        if horizon is None:
            return  # everything is waiting (policy starves the queue)
        when = self.sim._now + max(horizon, 0.0)
        if when - self.sim._now <= _EPSILON:
            raise self._stalled(self.sim._now)
        self._wake_handle = self.sim.call_at(
            when, lambda: self._on_wake(generation))

    def _repark(self) -> None:
        """:meth:`_reschedule` for a parked resource: hold the next
        completion as ``(when, seq)`` and notify the owner.

        Replays ``_reschedule``'s arithmetic in the same order, with
        the horizon scanned over the per-queue-length memo
        (:meth:`_rates_for`).  A parked resource never queues a wake,
        so there is no handle to retract.  ``_advance`` then ``_repark``
        is the parked wake step, the counterpart of the reference
        engine's ``_on_wake``: :meth:`drain` and the drive lane run it
        at each parked wake after warping the clock to its fire time.
        """
        self._pending_wake_at = None
        self._pending_wake_seq = None
        self._wake_generation += 1
        generation = self._wake_generation
        self._pop_finished()
        if self._wake_generation != generation:
            # A completion above resumed a process whose submit() or
            # cancel() ran a nested _repark on the final queue at this
            # same instant (or whose hook purged the queue).  That park
            # is the live one and its owner has been told; the entry
            # this frame would queue is generation-dead on arrival in
            # the reference engine.
            return
        tasks = self._tasks
        if tasks:
            cached = self._rates_cache.get(len(tasks))
            if cached is None:
                cached = self._rates_for(len(tasks))
            rates, _level, active = cached
            horizon = None
            for index in active:
                eta = tasks[index].work_remaining / rates[index]
                if horizon is None or eta < horizon:
                    horizon = eta
            # horizon None: the policy starves the queue, nothing parks.
            if horizon is not None:
                now = self.sim._now
                when = now + max(horizon, 0.0)
                if when - now <= _EPSILON:
                    raise self._stalled(now)
                # The park draws its tiebreak sequence number at the
                # same point call_at would have.
                self._pending_wake_at = when
                self._pending_wake_seq = next(self.sim._sequence)
        self._wake_owner.park_changed(self)

    def _next_horizon(self) -> float | None:
        """Seconds until the earliest queued completion (None if
        nothing is receiving service)."""
        rates = self.current_rates()
        horizon = None
        for task, rate in zip(self._tasks, rates, strict=True):
            if rate <= _EPSILON:
                continue
            eta = task.work_remaining / rate
            if horizon is None or eta < horizon:
                horizon = eta
        return horizon

    # -- fast path (repro.sim.fastpath) --------------------------------

    def drain(self) -> None:
        """Serve the queue to completion by warping the clock.

        Runs the parked wake step (``_advance`` + :meth:`_repark`) at
        each parked wake in turn, without queue round-trips.  Only a
        solo batch of the owner, which holds the simulator clock, may
        call this.
        """
        while self._tasks:
            when = self._pending_wake_at
            if when is None:
                return  # starved queue: nothing will ever complete
            self.sim.warp(when)
            self._advance()
            self._repark()

    def serve_solo(self, work: float) -> ServiceRecord:
        """Fused submit + drain for an empty parked resource.

        The fast path's hot loop: one subtask on an otherwise idle
        resource, served to completion in closed form, returning the
        :class:`ServiceRecord` directly — no :class:`Event`, no
        generator round-trip.  Performs the *identical float operations
        in the identical order* as ``submit()`` followed by ``drain()``
        — the ledger updates, segment merges, and the completion record
        are bitwise equal (the differential suite pins the
        equivalence).  Falls back to the generic pair whenever any
        precondition is off; ``submit`` then rejects non-finite or
        negative work.
        """
        cached = self._rates_cache.get(1)
        if cached is None:
            cached = self._rates_for(1)
        rates, level, _active = cached
        head_rate = rates[0]
        if (self._wake_owner is None or self._tasks
                or not _EPSILON < work < math.inf
                or not head_rate > _EPSILON):
            event = self.submit(work)
            self.drain()
            if not event.triggered:
                raise ResourceError(
                    f"fast path starved on {self.name!r}: the policy "
                    f"serves the queue head at rate 0")
            return event.value
        sim = self.sim
        now = sim._now
        # submit(): an idle resource's _advance only moves the cursor
        # (no tasks -> level 0, nothing served).
        last = now
        self.work_submitted += work
        generation = self._wake_generation + 1
        remaining = work
        started: float | None = None
        record_segments = self._record_segments
        # drain(): each cycle jumps to the closed-form completion
        # horizon and replays the reference wake's arithmetic.
        # remaining and head_rate exceed _EPSILON here, so the reference's
        # max(horizon, 0.0) clamp is the identity and its
        # level > _EPSILON test always holds.
        while True:
            when = last + remaining / head_rate
            dt = when - last
            if dt > _EPSILON:
                self.busy_seconds += level * dt
                if record_segments:
                    self._append_segment(last, when, level)
                if started is None:
                    started = last
                delivered = min(remaining, head_rate * dt)
                remaining -= delivered
                self.work_served += delivered
            else:
                # Nothing served (remaining > _EPSILON here): the next
                # cycle would land on the same instant forever.
                raise self._stalled(last, remaining)
            last = when
            generation += 1
            if remaining <= _EPSILON:
                break
        sim._now = when
        self._last_update = when
        self._wake_generation = generation
        return ServiceRecord(now, when if started is None else started,
                             when, work)

    def set_wake_owner(self, owner) -> None:
        """Park the resource under ``owner`` for the rest of its life.

        Every wake the reference engine would queue is parked as
        ``(when, seq)`` and the owner is notified so it can maintain
        one real driver event at the group's earliest parked wake.
        Owners attach before the first submit, so no queued wake is
        ever left behind.
        """
        self._wake_owner = owner

    def _rates_for(
            self, n: int
    ) -> tuple[tuple[float, ...], float, tuple[int, ...]]:
        """Memoize (padded rates, capacity level, active indices) for a
        queue of length ``n``.  ``level`` reproduces ``min(1.0,
        sum(rates))`` over the padded list and ``active`` the indices
        ``_advance``/``_next_horizon`` would not skip, so the parked
        branches replay identical arithmetic."""
        base = self._policy(n)
        nb = len(base)
        rates = tuple(base[i] if i < nb else 0.0 for i in range(n))
        level = min(1.0, sum(rates))
        active = tuple(i for i, r in enumerate(rates) if r > _EPSILON)
        entry = (rates, level, active)
        self._rates_cache[n] = entry
        return entry

    def _stalled(self, at: float,
                 remaining: float | None = None) -> SimulationError:
        """The error for a queue that can no longer make progress.

        The next completion lands within ``_EPSILON`` of the clock while
        more than ``_EPSILON`` of work remains, so the wake there serves
        nothing and re-lands on the same instant forever.  This happens
        once the clock is so large (from 2**24 s, ~1.7e7 s, its float
        spacing is 3.7e-9 s or more) that it swallows the last few
        nanoseconds of a task.
        """
        if remaining is None:
            remaining = min(task.work_remaining for task in self._tasks)
        return SimulationError(
            f"resource {self.name!r} stalled at t={at!r}: "
            f"{remaining:.3g}s of work left, but its next completion "
            f"lands within {_EPSILON:g}s of the clock, so it would never "
            f"be served")

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a later submit/cancel/completion
        self._advance()
        self._reschedule()

    def _pop_finished(self) -> None:
        # Scan-before-allocate: most rescheduling passes pop nothing
        # (every submit, every cancel) or exactly one task (every
        # completion wake), so neither common case may build throwaway
        # lists.  Plain iteration and remove() (a task has no __eq__,
        # so it matches by identity, at once for the head) keep both
        # free of index arithmetic.
        tasks = self._tasks
        for first in tasks:
            if first.work_remaining <= _EPSILON:
                break
        else:
            return
        tasks.remove(first)
        for task in tasks:
            if task.work_remaining <= _EPSILON:
                # Multiple simultaneous completions: rebuild the queue
                # and deliver in FIFO order.
                finished = [first] + [t for t in tasks
                                      if t.work_remaining <= _EPSILON]
                self._tasks = [t for t in tasks
                               if t.work_remaining > _EPSILON]
                for task in finished:
                    self._complete(task)
                return
        self._complete(first)

    def _complete(self, task: _Task) -> None:
        now = self.sim._now
        started = task.started_at
        task._trigger(True, ServiceRecord(
            task.submitted_at, now if started is None else started, now,
            task.work_total))
