"""Batched fast path: closed-form multi-step skips between epochs.

The per-event reference engine advances a job group one subtask
completion at a time: every PULL/COMP/PUSH queues a wake-up on the
event heap, pops it back off, and trampolines through the process
machinery — six-plus heap operations per training step.  But every
one of those wake-ups is predetermined the moment the subtask is
submitted: the completion horizon is Eq. 1's closed form
``work_remaining / rate`` — and for a contended multi-job group, the
joint timeline is still piecewise closed-form between queue-length
changes (the per-segment fixed point).

:class:`GroupBatchEngine` exploits that in two lanes.  Every group
under ``engine="fast"`` takes the **drive lane**: its resources are
permanently parked — each wake becomes a ``(when, seq)`` pair held on
its resource instead of a heap entry — and one cancellable *driver*
entry stands in for the group's earliest park.  When it fires,
consecutive parked wakes are served at their true times (forward-only
warps, so every hook observes true state) until an external heap
entry must interleave.  Each wake is served by the resource's
``_advance``, then ``_repark``, the parked resource's own reschedule
step.  ``_repark`` replays the reference ``_reschedule``'s arithmetic
in the same order, pops the finished task and triggers it (a queued
task is its own completion event, so the hand-off to the waiting
process is one trigger), and holds the next completion as a ``(when,
seq)`` park instead of queuing a wake, so it has no wake handle to
retract and no mode to dispatch on.  When that completion resumes a
process whose next submit re-parks the same resource, the nested
``_repark`` is the live one and the outer frame stops right after its
pop: the resource is parked once per wake.  The lane skips the heap
round-trips, never the arithmetic.

A single-job group whose hooks have no per-iteration callback
(``hooks.on_iteration is None``) may instead take the **solo lane**:
the whole job — initial load plus every iteration — runs under a
warped clock in one process step, :meth:`RateResource.serve_solo`
jumping straight to each closed-form completion, and parks at the
closed-form end time, where its terminal hooks fire at real time.

Both lanes replay the reference wake step's float operations in the
identical order, so both are bitwise equal to the reference engine by
construction; the differential suites (``tests/test_sim_fastpath.py``,
and ``tests/test_sim_resources.py`` for ``_repark`` against
``_reschedule`` on one resource) and the ``repro.check`` invariants pin
it there.  Engagement is counted once, on the simulator
(``sim.fastpath_stats``).

There is no fallback lane: a group's engine attaches when the group is
built and stays attached for the group's whole life.  The per-event
path runs only under ``engine="reference"``, the differential oracle.
When the group stops or crashes its engine lets go of the resources
(:meth:`GroupBatchEngine.detach`), so a finished group holds no
reference cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group_runtime import GroupRuntime
    from repro.sim.events import Event
    from repro.sim.resources import RateResource


class GroupBatchEngine:
    """Coordinates one group's batched execution.

    Created by :class:`~repro.core.group_runtime.GroupRuntime` under
    ``config.engine == "fast"``.  Two lanes:

    * **Drive lane** (every attached group): the engine keeps exactly
      one real *driver* entry on the heap at the group's earliest
      parked wake, queued at that wake's own tiebreak sequence number.
      When it fires, :meth:`_drive` serves consecutive parked wakes
      with the parked wake step (warping the clock **forward
      only**) until the next external heap entry precedes the next
      parked wake.  Completion callbacks run at true simulated times
      with true state, so any hook — ``HarmonyMaster``'s profiler
      transitions, pauses and regroups included — sees exactly what
      the reference engine shows it.
    * **Solo lane** (see :meth:`open`): the whole job runs under a
      warped clock inside one process step (``open`` / ``serve_solo``
      / ``close``), parked at the closed-form end time.
    """

    __slots__ = ("sim", "active", "_t_open", "_park_name",
                 "_resources", "_driver_handle",
                 "_driver_key", "_in_drive")

    def __init__(self, group: "GroupRuntime"):
        # No reference back to the group: the group owns the engine
        # (see detach() for the engine <-> resources pair).
        self.sim = group.sim
        self.active = False
        self._t_open = 0.0
        self._park_name = f"{group.group_id}:batch-park"
        self._resources = (group.cpu, group.net, group.disk)
        #: The single real heap entry backing the earliest parked wake.
        self._driver_handle = None
        #: ``(when, seq)`` the driver entry is queued at.
        self._driver_key: tuple[float, int] | None = None
        self._in_drive = False

    # -- drive lane ----------------------------------------------------

    def attach(self) -> None:
        """Park the group's resources under this engine for the group's
        whole life."""
        for resource in self._resources:
            resource.set_wake_owner(self)
        self.sim.fastpath_stats.groups_attached += 1

    def detach(self) -> None:
        """Release the resources: the group stopped or crashed.

        Each resource names the engine as its wake owner for the rest
        of its life (the per-wake path calls it directly), so the
        engine's own tuple of them is the edge that must go for the
        group to be freed by reference counting.  A stopped group has
        no task queued and nothing parked, so there is nothing left to
        drive; a drive in progress (a hook stopping the group from
        inside a wake) finds no park and ends.
        """
        self._resources = ()

    def park_changed(self, resource: "RateResource") -> None:
        """Owner notification: a resource's parked wake was (re)set or
        cleared.  Reconciles the driver entry, except while a drive or
        solo batch is running (those reconcile once, on exit)."""
        if self._in_drive or self.active:
            return
        self._sync_driver()

    def _earliest_park(self) -> "RateResource | None":
        """The resource holding the earliest parked wake in ``(when,
        seq)`` order, or None when no resource is parked."""
        best = None
        best_when = 0.0
        for resource in self._resources:
            when = resource._pending_wake_at
            if when is not None and (
                    best is None or when < best_when
                    or (when == best_when and resource._pending_wake_seq
                        < best._pending_wake_seq)):
                best = resource
                best_when = when
        return best

    def _sync_driver(self) -> None:
        """Keep exactly one live driver entry at the earliest parked
        wake, queued at that wake's own sequence number."""
        park = self._earliest_park()
        key = (None if park is None
               else (park._pending_wake_at, park._pending_wake_seq))
        handle = self._driver_handle
        if (key == self._driver_key and handle is not None
                and not handle.cancelled):
            return
        self.sim.cancel(handle)
        self._driver_handle = None
        self._driver_key = None
        if key is None:
            return
        self._driver_handle = self.sim.call_at(
            key[0], self._drive, sequence=key[1])
        self._driver_key = key

    def _drive(self) -> None:
        """Serve consecutive parked wakes at their true fire times.

        Stops when no park remains, when the next park would cross the
        current ``run()`` horizon, or when an external heap entry
        precedes the next park in ``(when, seq)`` order — external
        events (faults, arrivals, other groups' drivers, master
        timers) interleave exactly as they would on the reference
        heap.
        """
        self._driver_handle = None
        self._driver_key = None
        sim = self.sim
        # run_until only changes inside Simulator.run(), and the
        # simulator is not reentrant — constant for the whole drive.
        until = sim.run_until
        queue = sim._queue
        served = 0
        self._in_drive = True
        try:
            while True:
                resource = self._earliest_park()
                if resource is None:
                    break
                when = resource._pending_wake_at
                if until is not None and when > until:
                    break
                if queue:
                    head = sim.peek_entry()
                    if head is not None and (
                            head[0] < when or (
                                head[0] == when
                                and head[1] < resource._pending_wake_seq)):
                        break
                sim._now = when  # warp(), inlined for the hot loop
                resource._advance()
                resource._repark()
                served += 1
        finally:
            self._in_drive = False
        # The driver is queued at its own park's (when, seq), so the
        # first pass always serves that wake: served >= 1.
        stats = sim.fastpath_stats
        stats.drive_windows += 1
        stats.wakes_served += served
        self._sync_driver()

    # -- solo-lane eligibility -----------------------------------------

    def open(self, group: "GroupRuntime") -> bool:
        """Open a solo batch if ``group`` (the engine's own) is isolated
        enough to warp.

        Eligible when the hooks have no per-iteration callback (one
        would observe the warped clock), exactly one job runs in the
        group (multi-job groups contend through shared policies), no
        foreign work is queued on the group's resources, and the
        current ``run()`` call has no ``until`` horizon (a solo batch
        would warp past it).
        """
        sim = self.sim
        if self.active:
            return False
        if group.hooks.on_iteration is not None or group.n_jobs != 1:
            return False
        if sim.run_until is not None:
            return False
        if (group.cpu.queue_length or group.net.queue_length
                or group.disk.queue_length):
            return False
        self._t_open = sim.now
        self.active = True
        return True

    # -- in-batch service ----------------------------------------------

    def await_background(self, resource: "RateResource") -> None:
        """Drain a background task (the §IV-C reload) at its await site.

        The task's completion may predate the warped clock — the reload
        ran concurrently with subtasks the batch already skipped past —
        so the drain may warp *backwards* to the completion time.  The
        caller compares ``sim.now`` against its pre-await time and
        restores the later of the two, exactly reproducing the
        reference engine's ``max(await_time, completion_time)`` resume.
        """
        before = self.sim.now
        resource.drain()
        if self.sim.now < before:
            self.sim.warp(before)

    # -- teardown ------------------------------------------------------

    def close(self) -> "Event":
        """End a solo batch; returns the *park* event to yield on.

        Restores the clock to the batch's opening time and parks the
        generator until the batch's end time comes around for real.
        In-flight background work stays parked on its resource (its
        sequence number was drawn inside the window, before the park
        event's — so an exact tie between a background completion and
        the job's end still resolves in the reference engine's order);
        the driver sync below makes its wake real.
        """
        sim = self.sim
        t_end = sim.now
        sim.warp(self._t_open)
        self.active = False
        fp = sim.fastpath_stats
        fp.solo_batches += 1
        fp.solo_batched_seconds += t_end - self._t_open
        self._sync_driver()
        return sim.at(t_end, name=self._park_name)
