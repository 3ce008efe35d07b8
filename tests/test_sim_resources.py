"""Tests for rate-based shared resources."""

import math

import pytest

from repro.errors import ResourceError
from repro.sim import (
    Event,
    RateResource,
    Simulator,
    primary_secondary,
    processor_sharing,
    serial,
)


def drain(sim):
    sim.run()


class _IdleOwner:
    """A fast-path owner that ignores park notifications."""

    def park_changed(self, resource):
        pass


class TestSerial:
    def test_single_task_runs_at_full_rate(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        done = cpu.submit(5.0)
        drain(sim)
        assert done.ok
        assert sim.now == 5.0

    def test_tasks_serialize_fifo(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        first = cpu.submit(3.0)
        second = cpu.submit(2.0)
        drain(sim)
        assert first.value.finished_at == 3.0
        assert second.value.finished_at == 5.0

    def test_wait_time_recorded(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(3.0)
        second = cpu.submit(2.0)
        drain(sim)
        record = second.value
        assert record.started_at - record.submitted_at == pytest.approx(3.0)

    def test_zero_work_completes_instantly(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        done = cpu.submit(0.0)
        assert done.ok
        assert done.value.finished_at == done.value.submitted_at

    def test_negative_work_raises(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        with pytest.raises(ResourceError):
            cpu.submit(-1.0)

    @pytest.mark.parametrize("work", [float("nan"), float("inf")])
    @pytest.mark.parametrize("lane", ["plain", "parked", "serve_solo"])
    def test_non_finite_work_raises(self, sim, lane, work):
        """Every lane rejects NaN and infinite work up front, with the
        same error, instead of stalling or hanging on it later."""
        cpu = RateResource(sim, serial(), "cpu")
        if lane != "plain":
            cpu.set_wake_owner(_IdleOwner())
        serve = cpu.serve_solo if lane == "serve_solo" else cpu.submit
        with pytest.raises(ResourceError, match="finite"):
            serve(work)
        assert cpu.queue_length == 0
        assert cpu.work_submitted == 0.0

    def test_busy_seconds_equal_total_work(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(3.0)
        cpu.submit(4.0)
        drain(sim)
        cpu.close_segments()
        assert cpu.busy_seconds == pytest.approx(7.0)


def _starving(n_active):
    """A policy that serves nobody."""
    return [0.0] * n_active


class TestStarvedQueue:
    """A policy that serves no task leaves the queue waiting forever:
    no lane spins on it, and the solo lane says so."""

    def test_queued_engine_schedules_no_wake(self, sim):
        cpu = RateResource(sim, _starving, "cpu")
        done = cpu.submit(1.0)
        sim.run()
        assert not done.triggered
        assert cpu.queue_length == 1
        assert sim.now == 0.0

    def test_drain_returns_on_a_starved_parked_queue(self, sim):
        cpu = RateResource(sim, _starving, "cpu")
        cpu.set_wake_owner(_IdleOwner())
        done = cpu.submit(1.0)
        cpu.drain()
        assert not done.triggered
        assert sim.now == 0.0

    def test_solo_lane_raises_on_a_starved_head(self, sim):
        cpu = RateResource(sim, _starving, "cpu")
        cpu.set_wake_owner(_IdleOwner())
        with pytest.raises(ResourceError, match="fast path starved"):
            cpu.serve_solo(1.0)

    def test_solo_lane_falls_back_for_zero_work(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.set_wake_owner(_IdleOwner())
        record = cpu.serve_solo(0.0)
        assert record.finished_at == record.submitted_at == 0.0
        assert cpu.queue_length == 0


class TestPrimarySecondary:
    def test_secondary_runs_at_reduced_rate(self, sim):
        net = RateResource(sim, primary_secondary(0.5), "net")
        primary = net.submit(10.0)
        secondary = net.submit(10.0)
        drain(sim)
        assert primary.value.finished_at == pytest.approx(10.0)
        # Secondary progressed 5.0 at rate 0.5, then finished the last
        # 5.0 at full rate after promotion: 10 + 5 = 15.
        assert secondary.value.finished_at == pytest.approx(15.0)

    def test_third_task_waits(self, sim):
        net = RateResource(sim, primary_secondary(0.5), "net")
        net.submit(10.0)
        net.submit(10.0)
        third = net.submit(1.0)
        rates = net.current_rates()
        assert rates == [1.0, 0.5, 0.0]
        drain(sim)
        assert third.ok

    def test_invalid_secondary_rate_rejected(self):
        with pytest.raises(ResourceError):
            primary_secondary(1.5)

    def test_utilization_capped_at_one(self, sim):
        net = RateResource(sim, primary_secondary(0.5), "net")
        net.submit(10.0)
        net.submit(10.0)
        drain(sim)
        net.close_segments()
        assert all(segment.level <= 1.0 for segment in net.segments)


class TestProcessorSharing:
    def test_equal_split_without_interference(self, sim):
        disk = RateResource(sim, processor_sharing(), "disk")
        a = disk.submit(10.0)
        b = disk.submit(10.0)
        drain(sim)
        assert a.value.finished_at == pytest.approx(20.0)
        assert b.value.finished_at == pytest.approx(20.0)

    def test_interference_degrades_throughput(self, sim):
        cpu = RateResource(sim, processor_sharing(interference=0.5),
                           "cpu")
        a = cpu.submit(10.0)
        b = cpu.submit(10.0)
        drain(sim)
        # eff(2) = 1/1.5; two tasks of 10 take 20 * 1.5 = 30.
        assert a.value.finished_at == pytest.approx(30.0)
        assert b.value.finished_at == pytest.approx(30.0)

    def test_negative_interference_rejected(self):
        with pytest.raises(ResourceError):
            processor_sharing(interference=-0.1)

    @pytest.mark.parametrize("max_concurrent", [0, -1])
    def test_slotless_policy_rejected(self, max_concurrent):
        # Zero slots would leave every task on the resource waiting.
        with pytest.raises(ResourceError, match="max_concurrent"):
            processor_sharing(max_concurrent=max_concurrent)

    def test_max_concurrent_queues_excess(self, sim):
        disk = RateResource(sim, processor_sharing(max_concurrent=1),
                            "disk")
        a = disk.submit(5.0)
        b = disk.submit(5.0)
        drain(sim)
        assert a.value.finished_at == pytest.approx(5.0)
        assert b.value.finished_at == pytest.approx(10.0)

    def test_late_arrival_shares_remaining_work(self, sim):
        disk = RateResource(sim, processor_sharing(), "disk")
        first = disk.submit(10.0)

        def late():
            yield sim.timeout(5.0)
            second = disk.submit(10.0)
            yield second
            return second.value.finished_at
        process = sim.spawn(late())
        drain(sim)
        # First runs alone 5s (5 left), then shares: 5 more each in
        # parallel takes 10s -> first done at 15; second needs 10 at
        # half rate until 15 (5 done), then full rate: 15 + 5 = 20.
        assert first.value.finished_at == pytest.approx(15.0)
        assert process.value == pytest.approx(20.0)


class TestAccounting:
    def test_cancel_removes_waiting_task(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(5.0)
        waiting = cpu.submit(5.0)
        assert cpu.cancel(waiting) is True
        drain(sim)
        assert sim.now == pytest.approx(5.0)
        assert not waiting.triggered

    def test_cancel_unknown_event_returns_false(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        assert cpu.cancel(sim.event()) is False

    def test_segments_merge_contiguous_levels(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(2.0)
        cpu.submit(3.0)
        drain(sim)
        cpu.close_segments()
        assert len(cpu.segments) == 1
        assert cpu.segments[0].duration == pytest.approx(5.0)

    def test_idle_gap_splits_segments(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(2.0)

        def later():
            yield sim.timeout(5.0)
            yield cpu.submit(1.0)
        sim.spawn(later())
        drain(sim)
        cpu.close_segments()
        assert len(cpu.segments) == 2
        assert cpu.busy_seconds == pytest.approx(3.0)


class TestConservationLedger:
    """The work-conservation counters consumed by repro.check."""

    def test_audit_balances_mid_run(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(5.0)
        cpu.submit(3.0)
        sim.run(until=2.0)
        audit = cpu.audit()
        assert audit.work_submitted == pytest.approx(8.0)
        assert audit.work_served == pytest.approx(2.0)
        assert audit.work_discarded == 0.0
        assert audit.queued_work == pytest.approx(6.0)
        assert audit.queue_length == 2
        assert audit.work_submitted == pytest.approx(
            audit.work_served + audit.work_discarded
            + audit.queued_work)

    def test_cancel_moves_work_to_discarded(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(5.0)
        waiting = cpu.submit(4.0)
        cpu.cancel(waiting)
        drain(sim)
        audit = cpu.audit()
        assert audit.work_served == pytest.approx(5.0)
        assert audit.work_discarded == pytest.approx(4.0)
        assert audit.queued_work == 0.0

    def test_purge_drops_all_queued_work(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(5.0)
        cpu.submit(3.0)
        sim.run(until=2.0)
        dropped = cpu.purge()
        assert dropped == pytest.approx(6.0)  # 3.0 in flight + 3.0 waiting
        audit = cpu.audit()
        assert audit.queue_length == 0
        assert audit.work_served == pytest.approx(2.0)
        assert audit.work_discarded == pytest.approx(6.0)
        # Served work stays frozen afterwards: nothing phantom-runs.
        sim.run()
        assert cpu.audit().work_served == pytest.approx(2.0)

    def test_purge_empty_resource_is_a_no_op(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        assert cpu.purge() == 0.0
        assert cpu.audit().work_discarded == 0.0


class TestSegmentSealing:
    """close_segments() idempotency: sealed history never mutates."""

    def test_double_close_does_not_duplicate_final_segment(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(2.0)
        cpu.submit(3.0)
        drain(sim)
        cpu.close_segments()
        snapshot = [(s.start, s.end, s.level) for s in cpu.segments]
        cpu.close_segments()
        cpu.close_segments()
        assert [(s.start, s.end, s.level)
                for s in cpu.segments] == snapshot
        assert len(cpu.segments) == 1

    def test_sealed_segments_survive_later_contiguous_work(self, sim):
        """Regression: a shallow copy taken at close_segments() used to
        alias the live final segment — contiguous same-level work
        arriving later mutated its ``end`` in place."""
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(2.0)
        drain(sim)
        cpu.close_segments()
        snapshot = [(s.start, s.end) for s in cpu.segments]
        assert snapshot == [(0.0, 2.0)]
        # Same busy level, zero idle gap: mergeable before the seal.
        cpu.submit(3.0)
        drain(sim)
        cpu.close_segments()
        assert [(s.start, s.end) for s in cpu.segments[:1]] == snapshot
        assert len(cpu.segments) == 2
        assert cpu.segments[1].start == pytest.approx(2.0)
        assert cpu.segments[1].end == pytest.approx(5.0)
        assert cpu.busy_seconds == pytest.approx(5.0)


class _RecordingOwner:
    """A fast-path owner that logs every park it is told about."""

    def __init__(self):
        self.parks = []

    def park_changed(self, resource):
        self.parks.append((resource._pending_wake_at,
                           resource._pending_wake_seq))


class TestReparkDifferential:
    """A parked resource's reschedule step (``_repark``, served by
    ``drain()``) against the queued one (``_reschedule``, served by
    ``sim.run()``): one script, bit-for-bit equal records and ledgers.

    The script takes each of ``_repark``'s paths once: two equal tasks
    finishing at the same instant (the multi-completion pop), a
    zero-work submit, a completion callback that submits again to the
    same resource (the nested park supersedes the frame that completed
    the task), and a cancel of a waiting task.
    """

    @staticmethod
    def _script(resource, nested_parks):
        events = {}

        def resubmit(_event):
            events["d"] = resource.submit(1.5)
            nested_parks.append((resource._pending_wake_at,
                                 resource._pending_wake_seq))

        # Two tasks share the resource; later ones wait.  The second
        # of the two completions resubmits.
        events["a"] = resource.submit(2.0)
        events["b"] = resource.submit(2.0)
        events["b"].add_callback(resubmit)
        events["c"] = resource.submit(3.0)
        events["e"] = resource.submit(1.0)
        events["z"] = resource.submit(0.0)
        assert resource.cancel(events["c"])
        return events

    def _run(self, parked):
        sim = Simulator()
        resource = RateResource(
            sim, processor_sharing(interference=0.1, max_concurrent=2),
            "disk")
        owner = _RecordingOwner()
        if parked:
            resource.set_wake_owner(owner)
        nested = []
        events = self._script(resource, nested)
        if parked:
            resource.drain()
        else:
            sim.run()
        resource.close_segments()
        records = {name: (event.value.submitted_at, event.value.started_at,
                          event.value.finished_at, event.value.work)
                   if event.triggered else None
                   for name, event in events.items()}
        ledger = (resource.busy_seconds, resource.work_served,
                  resource.work_discarded, resource.work_submitted,
                  [(s.start, s.end, s.level) for s in resource.segments])
        return records, ledger, sim.now, owner.parks, nested

    def test_parked_equals_queued_bit_for_bit(self):
        parked, ledger, now, parks, nested = self._run(parked=True)
        queued, queued_ledger, queued_now, _, _ = self._run(parked=False)
        assert parked == queued
        assert ledger == queued_ledger
        assert now == queued_now
        # Each path was taken.
        assert parked["a"][2] == parked["b"][2]  # one instant, two pops
        assert parked["z"][0] == parked["z"][2] == 0.0  # zero work
        assert parked["c"] is None and ledger[2] == 3.0  # cancelled
        assert parked["d"][0] == parked["a"][2]  # resubmitted
        # The nested park is the live one: the frame that delivered
        # b's completion neither re-parks nor notifies after it.
        [park] = nested
        after = parks[parks.index(park) + 1:]
        assert park[0] is not None
        assert all(when != park[0] for when, _ in after)


class TestSoloSecondCycle:
    """At a clock of 2**25 s, whose float spacing (7.5e-9 s) nears
    ``_EPSILON``, the clock can round ``serve_solo``'s first completion
    horizon down and leave more than ``_EPSILON`` of work, so the solo
    lane runs a second closed-form cycle.  Its record and ledger equal
    the reference wakes' bit for bit."""

    CLOCK = 2.0 ** 25
    RATE = 0.3
    WORK = RATE * (2.5 * math.ulp(CLOCK))

    def _run(self, solo):
        sim = Simulator()
        sim.call_at(self.CLOCK, lambda: None)
        sim.run()
        resource = RateResource(sim, lambda n: (self.RATE,), "cpu")
        cycles = None
        if solo:
            resource.set_wake_owner(_IdleOwner())
            generation = resource._wake_generation
            record = resource.serve_solo(self.WORK)
            # One generation for the submit, one per cycle.
            cycles = resource._wake_generation - generation - 1
        else:
            event = resource.submit(self.WORK)
            sim.run()
            record = event.value
        resource.close_segments()
        ledger = (resource.busy_seconds, resource.work_served,
                  resource.work_submitted,
                  [(s.start, s.end, s.level) for s in resource.segments])
        return ((record.submitted_at, record.started_at,
                 record.finished_at, record.work), ledger, sim.now, cycles)

    def test_second_cycle_equals_the_reference(self):
        solo, ledger, now, cycles = self._run(solo=True)
        reference, reference_ledger, reference_now, _ = self._run(
            solo=False)
        assert cycles == 2
        assert solo == reference
        assert ledger == reference_ledger
        assert now == reference_now > self.CLOCK


class TestHandOff:
    """A queued task is its own completion event: ``submit`` returns it,
    ``cancel`` matches it by identity, and a wake triggers it."""

    def test_submit_returns_the_queued_task_itself(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        first = cpu.submit(2.0)
        second = cpu.submit(3.0)
        assert len(cpu._tasks) == 2
        assert cpu._tasks[0] is first and cpu._tasks[1] is second
        assert isinstance(first, Event)
        drain(sim)
        assert first.value.finished_at == 2.0
        assert second.value.finished_at == 5.0

    def test_a_task_starts_as_a_fresh_event(self, sim):
        """The task sets Event's fields itself; they must match what
        Event.__init__ sets."""
        cpu = RateResource(sim, serial(), "cpu")
        task = cpu.submit(2.0)
        fresh = Event(sim, task.name)
        assert ({slot: getattr(task, slot) for slot in Event.__slots__}
                == {slot: getattr(fresh, slot) for slot in Event.__slots__})
        # The queue's remove() and cancel() match tasks by identity.
        assert type(task).__eq__ is object.__eq__

    def test_cancel_of_another_resources_event_changes_nothing(self, sim):
        cpu = RateResource(sim, serial(), "cpu")
        net = RateResource(sim, primary_secondary(), "net")
        on_cpu = cpu.submit(2.0)
        on_net = net.submit(3.0)
        sim.run(until=1.0)
        before = (cpu.audit(), net.audit())
        assert cpu.cancel(on_net) is False
        assert net.cancel(on_cpu) is False
        assert (cpu.audit(), net.audit()) == before
        drain(sim)
        assert on_cpu.value.finished_at == 2.0
        assert on_net.value.finished_at == 3.0

    @pytest.mark.parametrize("parked", [False, True],
                             ids=["queued", "parked"])
    def test_a_purged_task_never_triggers(self, sim, parked):
        cpu = RateResource(sim, serial(), "cpu")
        if parked:
            cpu.set_wake_owner(_IdleOwner())
        running = cpu.submit(2.0)
        waiting = cpu.submit(3.0)
        sim.run(until=1.0)
        assert cpu.purge() == 4.0
        later = cpu.submit(1.0)
        if parked:
            cpu.drain()
        else:
            drain(sim)
        assert not running.triggered and not waiting.triggered
        assert later.value.finished_at == 2.0
        assert cpu.cancel(running) is False
