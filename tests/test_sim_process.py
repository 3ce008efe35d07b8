"""Tests for generator-based simulated processes."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from tests.test_reference_cycles import collector_finds


class TestProcessBasics:
    def test_runs_to_completion(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "done"
        process = sim.spawn(proc())
        sim.run()
        assert not process.alive
        assert process.ok
        assert process.value == "done"
        assert sim.now == 3.0

    def test_receives_event_values(self, sim):
        def proc():
            value = yield sim.timeout(1.0, value=41)
            return value + 1
        process = sim.spawn(proc())
        sim.run()
        assert process.value == 42

    def test_non_generator_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)

    def test_yielding_non_event_fails_loudly(self, sim):
        def proc():
            yield 5
        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_a_waiting_parent_receives_the_non_event_error(self, sim):
        def child():
            yield sim.timeout(1.0)
            yield 5

        def parent():
            try:
                yield sim.spawn(child(), name="child")
            except SimulationError as error:
                return str(error)

        process = sim.spawn(parent())
        sim.run()
        assert process.value == "process 'child' yielded int, " \
            "expected an Event"

    def test_an_already_failed_event_raises_at_the_yield(self, sim):
        failed = sim.event("failed")
        failed.fail(ValueError("boom"))

        def proc():
            try:
                yield failed
            except ValueError as error:
                return f"caught {error}"

        process = sim.spawn(proc())
        sim.run()
        assert process.value == "caught boom"

    def test_processes_interleave(self, sim):
        trace = []

        def proc(name, delay):
            yield sim.timeout(delay)
            trace.append((name, sim.now))
        sim.spawn(proc("slow", 3.0))
        sim.spawn(proc("fast", 1.0))
        sim.run()
        assert trace == [("fast", 1.0), ("slow", 3.0)]

    def test_process_can_wait_on_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return "inner-result"

        def outer():
            result = yield sim.spawn(inner())
            return f"got {result}"
        process = sim.spawn(outer())
        sim.run()
        assert process.value == "got inner-result"


class TestKill:
    def test_kill_ends_process_normally(self, sim):
        def proc():
            yield sim.timeout(100.0)
        process = sim.spawn(proc())
        sim.call_at(1.0, process.kill)
        sim.run()
        assert not process.alive
        assert process.ok
        assert process.value is None

    def test_killed_generator_can_clean_up(self, sim):
        cleaned = []

        def proc():
            try:
                yield sim.timeout(100.0)
            except ProcessKilled:
                cleaned.append(True)
        process = sim.spawn(proc())
        sim.call_at(1.0, process.kill)
        sim.run()
        assert cleaned == [True]
        assert process.ok

    def test_a_killed_process_is_freed_by_reference_counting(self, sim):
        """The kill's exception, its traceback and the frame that caught
        it must not keep each other alive once the process is gone."""
        def proc():
            yield sim.timeout(100.0)

        def case():
            process = sim.spawn(proc())
            sim.call_at(1.0, process.kill)
            sim.run()
            assert process.ok

        found, cycles = collector_finds(case)
        assert (found, cycles) == (0, [])

    def test_kill_dead_process_is_noop(self, sim):
        def proc():
            return "x"
            yield  # pragma: no cover - makes this a generator
        process = sim.spawn(proc())
        sim.run()
        process.kill()
        assert process.value == "x"

    def test_stale_wakeup_after_kill_is_ignored(self, sim):
        """A timeout that fires after the process was killed must not
        resurrect it."""
        def proc():
            yield sim.timeout(10.0)
            raise AssertionError("should never resume")
        process = sim.spawn(proc())
        sim.call_at(1.0, process.kill)
        sim.run()
        assert sim.now == 10.0  # the stale timeout still fired
        assert process.ok


class TestFailures:
    def test_unobserved_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("kaboom")
        sim.spawn(proc())
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()

    def test_observed_exception_delivered_to_waiter(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise RuntimeError("inner error")

        def waiter():
            try:
                yield sim.spawn(failing())
            except RuntimeError as error:
                return f"caught {error}"
        process = sim.spawn(waiter())
        sim.run()
        assert process.value == "caught inner error"

    def test_failed_event_raises_at_yield_point(self, sim):
        event = sim.event()

        def proc():
            try:
                yield event
            except ValueError:
                return "handled"
        process = sim.spawn(proc())
        sim.call_at(1.0, lambda: event.fail(ValueError("x")))
        sim.run()
        assert process.value == "handled"
