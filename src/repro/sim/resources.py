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
"""

from __future__ import annotations

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

    @property
    def wait_time(self) -> float:
        """Time spent queued before receiving any service."""
        return self.started_at - self.submitted_at

    @property
    def total_time(self) -> float:
        return self.finished_at - self.submitted_at


@dataclass(slots=True)
class _Task:
    work_remaining: float
    work_total: float
    event: Event
    tag: str | None
    submitted_at: float
    started_at: float | None = None
    served: float = 0.0


@dataclass
class BusySegment:
    """A constant-utilization interval of the resource."""

    start: float
    end: float
    level: float

    @property
    def duration(self) -> float:
        return self.end - self.start


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
                 record_segments: bool = True,
                 trace_gauge: str | None = None):
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
        #: Fast-path mode (:mod:`repro.sim.fastpath`): wake-ups are not
        #: queued; their exact fire time is parked here for
        #: :meth:`drain` to warp to.
        self._autodrain = False
        self._pending_wake_at: float | None = None
        #: Tiebreak sequence number of the parked wake (coordinated
        #: mode only), drawn at exactly the point the reference
        #: engine's ``call_at`` would have drawn it.
        self._pending_wake_seq: int | None = None
        #: Coordinated fast-path owner (a ``GroupBatchEngine``).  When
        #: set, parked wakes draw sequence numbers and the owner is
        #: notified on every park change so it can keep one real
        #: "driver" event at the group's earliest parked wake.
        self._wake_owner = None
        # Head-of-line service rate for a queue of one, memoized for
        # serve_solo (policies are pure functions of the queue length).
        self._solo_rate: float | None = None
        # Per-queue-length (rates, level, active indices) memo for
        # serve_parked.  Policies are pure functions of the queue
        # length, so the cached tuples are float-identical to what
        # current_rates() would rebuild at every wake.
        self._rates_cache: dict[
            int, tuple[tuple[float, ...], float, tuple[int, ...]]] = {}
        self._record_segments = record_segments
        # Observability: a gauge lane sampling the delivered service
        # level at every rate change (renders as a Perfetto counter
        # track).  None unless tracing is enabled, so the simulation
        # hot path pays a single attribute check.
        self._level_gauge = (sim.tracer.gauge(trace_gauge)
                            if trace_gauge and sim.tracer.enabled
                            else None)
        self._last_level = 0.0
        #: Utilization history: one entry per constant-rate interval.
        self.segments: list[BusySegment] = []
        # Segments below this index are sealed: close_segments() has
        # published them (exporters/recorders take shallow copies), so
        # _append_segment must never extend them in place.
        self._segment_seal = 0
        #: Aggregate ``∫ level dt`` — busy seconds, capped at capacity.
        self.busy_seconds = 0.0
        #: Service seconds attributed per tag (e.g. per job id).
        self.served_by_tag: dict[str, float] = {}
        #: Work-conservation ledger (see :class:`ResourceAudit`).
        self.work_submitted = 0.0
        self.work_served = 0.0
        self.work_discarded = 0.0

    # -- public API ----------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._tasks)

    def submit(self, work: float, tag: str | None = None) -> Event:
        """Enqueue ``work`` seconds of service; returns a completion event.

        The event value is a :class:`ServiceRecord`.
        """
        if work < 0:
            raise ResourceError(f"negative work {work} on {self.name!r}")
        sim = self.sim
        # _advance at an unchanged clock only rewrites _last_update with
        # the same value; skipping the call entirely is exact.
        if sim._now != self._last_update:
            self._advance()
        event = Event(sim, self._task_name)
        task = _Task(work_remaining=max(work, 0.0), work_total=work,
                     event=event, tag=tag, submitted_at=sim._now)
        self.work_submitted += task.work_remaining
        self._tasks.append(task)
        # Zero-work tasks are popped as already-finished by the
        # rescheduling pass below.
        self._reschedule()
        return event

    def cancel(self, event: Event) -> bool:
        """Remove a pending task identified by its completion event.

        Returns True if the task was found and removed.  The event is
        *not* triggered; the caller owns it.
        """
        self._advance()
        for index, task in enumerate(self._tasks):
            if task.event is event:
                self.work_discarded += max(task.work_remaining, 0.0)
                del self._tasks[index]
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
        if self._level_gauge is not None:
            self._sample_level()
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
        if self._wake_owner is not None and self._level_gauge is None:
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
            served_by_tag = self.served_by_tag
            for index in active:
                task = tasks[index]
                if task.started_at is None:
                    task.started_at = last_update
                delivered = min(task.work_remaining, rates[index] * dt)
                task.work_remaining -= delivered
                task.served += delivered
                self.work_served += delivered
                tag = task.tag
                if tag is not None:
                    served_by_tag[tag] = (
                        served_by_tag.get(tag, 0.0) + delivered)
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
            task.served += delivered
            self.work_served += delivered
            if task.tag is not None:
                self.served_by_tag[task.tag] = (
                    self.served_by_tag.get(task.tag, 0.0) + delivered)
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
        """Recompute the next completion and schedule a wake-up."""
        # Supersede the previously queued wake instead of leaving a
        # dead entry behind: the generation guard would ignore it, but
        # stale entries cost queue traffic and would block fast-path
        # clock warps across their fire times.
        if self._wake_handle is not None:
            self._wake_handle.cancelled = True  # sim.cancel()
            self._wake_handle = None
        self._pending_wake_at = None
        self._pending_wake_seq = None
        self._wake_generation += 1
        generation = self._wake_generation
        # Pop any tasks that are already done (zero-work or finished
        # exactly at the current instant).
        self._pop_finished()
        if self._level_gauge is not None:
            self._sample_level()
        owner = self._wake_owner
        if not self._tasks:
            if owner is not None and not (owner._in_drive
                                          or owner.active):
                owner._sync_driver()  # park_changed(), inlined
            return
        if owner is not None and self._level_gauge is None:
            # Coordinated mode: the horizon scan over the memoized
            # active set replays _next_horizon's arithmetic exactly.
            tasks = self._tasks
            cached = self._rates_cache.get(len(tasks))
            if cached is None:
                cached = self._rates_for(len(tasks))
            rates, _level, active = cached
            horizon = None
            for index in active:
                eta = tasks[index].work_remaining / rates[index]
                if horizon is None or eta < horizon:
                    horizon = eta
        else:
            horizon = self._next_horizon()
        if horizon is None:
            # everything is waiting (policy starves the queue)
            if owner is not None:
                owner.park_changed(self)
            return
        when = self.sim._now + max(horizon, 0.0)
        if when - self.sim._now <= _EPSILON:
            raise self._stalled(self.sim._now)
        if self._autodrain:
            if owner is not None:
                # Coordinated lane: mirror the event-driven entry
                # exactly.  _pop_finished may have resumed a process
                # whose submit() ran a nested _reschedule — that nested
                # park is the live one (the entry this frame would have
                # queued is generation-dead on arrival in the reference
                # engine), so a stale frame must not overwrite it.  The
                # park draws its tiebreak sequence number at the same
                # point call_at would have.
                if self._wake_generation != generation:
                    return
                self._pending_wake_at = when
                self._pending_wake_seq = next(self.sim._sequence)
                if not (owner._in_drive or owner.active):
                    owner._sync_driver()  # park_changed(), inlined
                return
            # Solo lane: the owning batch will drain() synchronously.
            # Park the exact fire time the event-driven engine would
            # have used, so the warped timeline stays bitwise equal.
            self._pending_wake_at = when
            return
        self._wake_handle = self.sim.call_at(
            when, lambda: self._on_wake(generation), cancellable=True)

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

    def set_autodrain(self, enabled: bool) -> None:
        """Enter/leave fast-path mode.  Entering keeps an already
        queued wake-up where it is (:meth:`drain` absorbs it); leaving
        must go through :meth:`rearm` instead, which re-queues the
        parked wake."""
        self._autodrain = enabled

    def drain(self) -> None:
        """Serve the queue to completion by warping the clock.

        Replays exactly the wake-cycle float operations of the
        event-driven path — advance, pop, gauge sample, next horizon —
        in the same order, without queue round-trips.  Only a fast-path
        batch that owns the simulator clock may call this.
        """
        if self._wake_handle is not None:
            # A wake queued before the batch opened (e.g. a background
            # reload already in flight): absorb it at its exact time.
            self._pending_wake_at = self._wake_handle.when
            self.sim.cancel(self._wake_handle)
            self._wake_handle = None
        while self._tasks:
            when = self._pending_wake_at
            if when is None:
                return  # starved queue: nothing will ever complete
            self.sim.warp(when)
            self._advance()
            self._reschedule()

    def serve_solo(self, work: float, tag: str) -> ServiceRecord:
        """Fused submit + drain for an empty autodrained resource.

        The fast path's hot loop: one subtask on an otherwise idle
        resource, served to completion in closed form, returning the
        :class:`ServiceRecord` directly — no :class:`Event`, no
        generator round-trip.  Performs the *identical float operations
        in the identical order* as ``submit()`` followed by ``drain()``
        — the ledger updates, segment merges, and the completion record
        are bitwise equal (the differential suite pins the
        equivalence).  Falls back to the generic pair whenever any
        precondition is off.
        """
        head_rate = self._solo_rate
        if head_rate is None:
            rates = self._policy(1)
            head_rate = self._solo_rate = rates[0] if rates else 0.0
        if (not self._autodrain or self._tasks or work <= _EPSILON
                or head_rate <= _EPSILON
                or self._level_gauge is not None):
            event = self.submit(work, tag=tag)
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
        served_by_tag = self.served_by_tag
        record_segments = self._record_segments
        # drain(): each cycle jumps to the closed-form completion
        # horizon and replays the reference wake's arithmetic.
        while True:
            when = last + max(remaining / head_rate, 0.0)
            dt = when - last
            if dt > _EPSILON:
                level = min(1.0, 0 + head_rate)
                if level > _EPSILON:
                    self.busy_seconds += level * dt
                    if record_segments:
                        # _append_segment inlined (dt > 0 already rules
                        # out the zero-duration guard): merge onto an
                        # unsealed contiguous same-level segment, else
                        # start a new one.
                        segments = self.segments
                        if len(segments) > self._segment_seal:
                            prev = segments[-1]
                            if (abs(prev.end - last) <= _EPSILON
                                    and abs(prev.level - level) <= 1e-6):
                                prev.end = when
                            else:
                                segments.append(
                                    BusySegment(last, when, level))
                        else:
                            segments.append(
                                BusySegment(last, when, level))
                if started is None:
                    started = last
                delivered = min(remaining, head_rate * dt)
                remaining -= delivered
                self.work_served += delivered
                served_by_tag[tag] = (
                    served_by_tag.get(tag, 0.0) + delivered)
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
        return ServiceRecord(
            submitted_at=now,
            started_at=started if started is not None else when,
            finished_at=when, work=work)

    def rearm(self) -> None:
        """Leave fast-path mode, re-queueing the parked wake (if any).

        Called when a solo batch closes with a task still in flight (a
        background reload crossing the batch boundary) and when a
        coordinated engine deactivates: the wake returns to the event
        queue at the exact parked time — and, in coordinated mode, at
        the exact tiebreak sequence number it drew when it parked, so
        same-instant races resolve in the reference order.
        """
        self._autodrain = False
        self._wake_owner = None
        when, self._pending_wake_at = self._pending_wake_at, None
        seq, self._pending_wake_seq = self._pending_wake_seq, None
        if when is None or not self._tasks:
            return
        generation = self._wake_generation
        self._wake_handle = self.sim.call_at(
            when, lambda: self._on_wake(generation), cancellable=True,
            sequence=seq)

    # -- coordinated fast path (multi-job groups) ----------------------

    def set_wake_owner(self, owner) -> None:
        """Enter coordinated fast-path mode under ``owner``.

        The resource stays permanently autodrained: every wake the
        reference engine would queue is parked as ``(when, seq)`` and
        the owner is notified so it can maintain one real driver event
        at the group's earliest parked wake.  :meth:`rearm` leaves this
        mode.
        """
        self._wake_owner = owner
        self._autodrain = True

    def serve_parked(self) -> None:
        """Serve one parked wake — the coordinated drive's hot step.

        The caller has warped the clock to the parked fire time.
        Semantically identical to the reference engine's ``_on_wake``
        (``_advance`` + ``_reschedule``), but fused: the per-position
        rates, capacity level, and active-index set are memoized per
        queue length (the "per-segment fixed point" — rates depend
        only on the queue length, which is constant between structural
        changes), and no cancellation/queue traffic is paid.  Float
        operations are replayed in the reference order, so the result
        is bitwise equal.
        """
        if self._level_gauge is not None:
            # Tracing samples the level at every rate change; take the
            # generic path so gauge points land identically.
            self._advance()
            self._reschedule()
            return
        sim = self.sim
        now = sim._now
        # _advance(), inlined (the memoized coordinated branch): this
        # is the single hottest call site in a drive, one per wake.
        dt = now - self._last_update
        if dt <= _EPSILON:
            self._last_update = now
        else:
            tasks = self._tasks
            cached = self._rates_cache.get(len(tasks))
            if cached is None:
                cached = self._rates_for(len(tasks))
            rates, level, active = cached
            last_update = self._last_update
            if level > _EPSILON:
                self.busy_seconds += level * dt
                if self._record_segments:
                    # _append_segment inlined (dt > 0 already rules out
                    # the zero-duration guard).
                    segments = self.segments
                    if len(segments) > self._segment_seal:
                        prev = segments[-1]
                        if (abs(prev.end - last_update) <= _EPSILON
                                and abs(prev.level - level) <= 1e-6):
                            prev.end = now
                        else:
                            segments.append(
                                BusySegment(last_update, now, level))
                    else:
                        segments.append(
                            BusySegment(last_update, now, level))
            served_by_tag = self.served_by_tag
            for index in active:
                task = tasks[index]
                if task.started_at is None:
                    task.started_at = last_update
                delivered = min(task.work_remaining, rates[index] * dt)
                task.work_remaining -= delivered
                task.served += delivered
                self.work_served += delivered
                tag = task.tag
                if tag is not None:
                    served_by_tag[tag] = (
                        served_by_tag.get(tag, 0.0) + delivered)
            self._last_update = now
        # _reschedule(), fused.  No wake handle to cancel and no gauge
        # to sample in this mode.
        self._pending_wake_at = None
        self._pending_wake_seq = None
        self._wake_generation += 1
        generation = self._wake_generation
        # _pop_finished(), single-completion case inlined: a wake fires
        # at the minimum completion horizon, so almost every serve pops
        # exactly one task.  Completion callbacks may resume processes
        # that submit() back into this queue.
        tasks = self._tasks
        first = -1
        for index, task in enumerate(tasks):
            if task.work_remaining <= _EPSILON:
                first = index
                break
        if first >= 0:
            for index in range(first + 1, len(tasks)):
                if tasks[index].work_remaining <= _EPSILON:
                    self._pop_finished()  # simultaneous completions
                    break
            else:
                self._complete(tasks.pop(first))
        owner = self._wake_owner
        if owner is None:
            # The engine deactivated while a completion callback ran
            # (fast-path teardown mid-serve): fall back to the generic
            # rescheduling pass, which queues a real wake.
            self._reschedule()
            return
        # No owner notification on any exit: serve_parked only runs
        # inside the owner's _drive loop (which rescans every park on
        # each step and reconciles the driver once, on exit), so
        # park_changed would be suppressed anyway.
        tasks = self._tasks
        if not tasks:
            return
        cached = self._rates_cache.get(len(tasks))
        if cached is None:
            cached = self._rates_for(len(tasks))
        rates, _level, active = cached
        horizon = None
        for index in active:
            eta = tasks[index].work_remaining / rates[index]
            if horizon is None or eta < horizon:
                horizon = eta
        if horizon is None:
            return
        if self._wake_generation != generation:
            return  # superseded by a nested reschedule in _pop_finished
        when = now + max(horizon, 0.0)
        if when - now <= _EPSILON:
            raise self._stalled(now)
        self._pending_wake_at = when
        self._pending_wake_seq = next(sim._sequence)  # draw_sequence()

    def _rates_for(
            self, n: int
    ) -> tuple[tuple[float, ...], float, tuple[int, ...]]:
        """Memoize (padded rates, capacity level, active indices) for a
        queue of length ``n``.  ``level`` reproduces ``min(1.0,
        sum(rates))`` over the padded list and ``active`` the indices
        ``_advance``/``_next_horizon`` would not skip, so the fused
        path replays identical arithmetic."""
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

    def _sample_level(self) -> None:
        """Record the delivered service level going forward from now."""
        level = min(1.0, sum(self.current_rates())) if self._tasks else 0.0
        if level != self._last_level:
            self._last_level = level
            self._level_gauge.set(level)

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a later submit/cancel/completion
        self._advance()
        self._reschedule()

    def _pop_finished(self) -> None:
        # Scan-before-allocate: most rescheduling passes pop nothing
        # (every submit, every cancel) or exactly one task (every
        # completion wake), so neither common case may build throwaway
        # lists.
        tasks = self._tasks
        first = -1
        for index, task in enumerate(tasks):
            if task.work_remaining <= _EPSILON:
                first = index
                break
        if first < 0:
            return
        for index in range(first + 1, len(tasks)):
            if tasks[index].work_remaining <= _EPSILON:
                # Multiple simultaneous completions: rebuild the queue
                # and deliver in FIFO order.
                finished = [t for t in tasks
                            if t.work_remaining <= _EPSILON]
                self._tasks = [t for t in tasks
                               if t.work_remaining > _EPSILON]
                for task in finished:
                    self._complete(task)
                return
        self._complete(tasks.pop(first))

    def _complete(self, task: _Task) -> None:
        started = task.started_at if task.started_at is not None \
            else self.sim.now
        record = ServiceRecord(submitted_at=task.submitted_at,
                               started_at=started,
                               finished_at=self.sim.now,
                               work=task.work_total)
        task.event.succeed(record)
